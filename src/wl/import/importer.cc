#include "wl/import/importer.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "sim/logger.h"
#include "sim/strings.h"
#include "wl/op.h"

namespace mlps::wl::import {

namespace {

using sim::JsonValue;

/** Integer shape ceiling: factory math stays in int range. */
constexpr double kMaxShapeDim = 2147483647.0;

const std::vector<std::string> &
opKindTokens()
{
    static const std::vector<std::string> tokens = {
        "conv2d", "gemm",    "rnn",  "attention", "embedding",
        "elementwise", "norm", "pool", "softmax",  "optimizer",
    };
    return tokens;
}

bool
opKindFromToken(const std::string &token, OpKind *out)
{
    static const std::map<std::string, OpKind> map = {
        {"conv2d", OpKind::Conv2d},
        {"gemm", OpKind::Gemm},
        {"rnn", OpKind::RnnCell},
        {"attention", OpKind::Attention},
        {"embedding", OpKind::Embedding},
        {"elementwise", OpKind::Elementwise},
        {"norm", OpKind::Norm},
        {"pool", OpKind::Pool},
        {"softmax", OpKind::Softmax},
        {"optimizer", OpKind::Optimizer},
    };
    auto it = map.find(token);
    if (it == map.end())
        return false;
    *out = it->second;
    return true;
}

/**
 * One import in flight: the source text (for line/column mapping),
 * the budgets, and the result being filled. Every check appends
 * diagnostics instead of throwing; the document is accepted only when
 * none accumulated.
 */
class Importer
{
  public:
    Importer(const std::string &text, const ImportOptions &opts,
             ImportResult *result)
        : text_(text), opts_(opts), r_(result) {}

    void
    run(const JsonValue &doc)
    {
        if (!doc.isObject()) {
            error(doc.offset, "wrong-type",
                  "document must be a JSON object");
            return;
        }
        checkKeys(doc, "document",
                  {"format", "workload", "graph", "tensors",
                   "pipeline", "dataset", "convergence", "host",
                   "calibration"});
        checkFormat(doc);
        parseWorkload(doc);
        parseTensors(doc);
        parseGraph(doc);
        parsePipeline(doc);
        parseDataset(doc);
        parseConvergence(doc);
        parseHost(doc);
        parseCalibration(doc);
        checkSemantics(doc);
        r_->ok = r_->diagnostics.empty();
        if (r_->ok) {
            // Belt and braces: an accepted spec must satisfy the
            // same invariants the hand-built models do. A throw here
            // is an importer bug, never the file's fault.
            try {
                r_->spec.validate();
            } catch (const sim::FatalError &e) {
                error(0, "internal-error",
                      std::string("validated spec rejected: ") +
                          e.what());
                r_->ok = false;
            }
        }
    }

  private:
    // ---- diagnostics ------------------------------------------------

    void
    error(std::size_t offset, const char *code, std::string message)
    {
        if (r_->diagnostics.size() >= kMaxDiagnostics) {
            r_->truncated = true;
            return;
        }
        Diagnostic d;
        d.code = code;
        d.message = std::move(message);
        d.byte = offset;
        sim::jsonLineCol(text_, offset, &d.line, &d.col);
        r_->diagnostics.push_back(std::move(d));
    }

    // ---- schema helpers ---------------------------------------------

    /** Reject unknown and duplicate keys of one object. */
    void
    checkKeys(const JsonValue &obj, const std::string &what,
              const std::vector<std::string> &known)
    {
        std::set<std::string> seen;
        for (const auto &[key, value] : obj.object) {
            if (!seen.insert(key).second)
                error(value.offset, "duplicate-key",
                      what + " repeats key \"" + key + "\"");
            if (std::find(known.begin(), known.end(), key) ==
                known.end())
                error(value.offset, "unknown-field",
                      what + " has unknown key \"" + key + "\"" +
                          sim::didYouMean(key, known));
        }
    }

    const JsonValue *
    require(const JsonValue &obj, const std::string &what,
            const char *key)
    {
        const JsonValue *m = obj.find(key);
        if (!m)
            error(obj.offset, "missing-field",
                  what + " needs \"" + std::string(key) + "\"");
        return m;
    }

    bool
    getString(const JsonValue &obj, const std::string &what,
              const char *key, std::string *out)
    {
        const JsonValue *m = obj.find(key);
        if (!m)
            return false;
        if (!m->isString()) {
            error(m->offset, "wrong-type",
                  what + " key \"" + std::string(key) +
                      "\" must be a string");
            return false;
        }
        *out = m->str;
        return true;
    }

    bool
    getBool(const JsonValue &obj, const std::string &what,
            const char *key, bool *out)
    {
        const JsonValue *m = obj.find(key);
        if (!m)
            return false;
        if (!m->isBool()) {
            error(m->offset, "wrong-type",
                  what + " key \"" + std::string(key) +
                      "\" must be a boolean");
            return false;
        }
        *out = m->boolean;
        return true;
    }

    /** Finite number member; diagnostics on mistype or non-finite. */
    bool
    getNumber(const JsonValue &obj, const std::string &what,
              const char *key, double *out)
    {
        const JsonValue *m = obj.find(key);
        if (!m)
            return false;
        if (!m->isNumber()) {
            error(m->offset, "wrong-type",
                  what + " key \"" + std::string(key) +
                      "\" must be a number");
            return false;
        }
        // The strict parser never yields inf/nan, but documents
        // embedded in serve request lines ride the lenient wire
        // parser; re-check here so no path smuggles one in.
        if (!std::isfinite(m->number)) {
            error(m->offset, "out-of-range",
                  what + " key \"" + std::string(key) +
                      "\" must be finite");
            return false;
        }
        *out = m->number;
        return true;
    }

    /** Positive integral shape dimension. */
    bool
    getDim(const JsonValue &obj, const std::string &what,
           const char *key, int *out)
    {
        double v = 0.0;
        const JsonValue *m = obj.find(key);
        if (!getNumber(obj, what, key, &v))
            return false;
        if (v <= 0.0) {
            error(m->offset, "non-positive-dim",
                  what + " key \"" + std::string(key) +
                      "\" must be positive (got " +
                      sim::jsonDouble(v) + ")");
            return false;
        }
        if (v != std::floor(v) || v > kMaxShapeDim) {
            error(m->offset, "bad-shape",
                  what + " key \"" + std::string(key) +
                      "\" must be an integer within range (got " +
                      sim::jsonDouble(v) + ")");
            return false;
        }
        *out = static_cast<int>(v);
        return true;
    }

    /** Positive (possibly fractional) extent, e.g. element counts. */
    bool
    getExtent(const JsonValue &obj, const std::string &what,
              const char *key, double *out)
    {
        double v = 0.0;
        const JsonValue *m = obj.find(key);
        if (!getNumber(obj, what, key, &v))
            return false;
        if (v <= 0.0) {
            error(m->offset, "non-positive-dim",
                  what + " key \"" + std::string(key) +
                      "\" must be positive (got " +
                      sim::jsonDouble(v) + ")");
            return false;
        }
        *out = v;
        return true;
    }

    /** Number restricted to [lo, hi]; out-of-range otherwise. */
    void
    getRanged(const JsonValue &obj, const std::string &what,
              const char *key, double lo, double hi, double *out)
    {
        double v = 0.0;
        const JsonValue *m = obj.find(key);
        if (!getNumber(obj, what, key, &v))
            return;
        if (v < lo || v > hi) {
            char range[64];
            std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
            error(m->offset, "out-of-range",
                  what + " key \"" + std::string(key) + "\" " +
                      sim::jsonDouble(v) + " out of " + range);
            return;
        }
        *out = v;
    }

    // ---- sections ---------------------------------------------------

    void
    checkFormat(const JsonValue &doc)
    {
        const JsonValue *f = doc.find("format");
        if (!f) {
            error(doc.offset, "bad-format",
                  std::string("document needs \"format\": \"") +
                      kFormatName + "\"");
            return;
        }
        if (!f->isString() || f->str != kFormatName)
            error(f->offset, "bad-format",
                  std::string("unsupported format") +
                      (f->isString() ? " '" + f->str + "'" : "") +
                      " (expected '" + kFormatName + "')");
    }

    void
    parseWorkload(const JsonValue &doc)
    {
        const JsonValue *w = require(doc, "document", "workload");
        if (!w)
            return;
        if (!w->isObject()) {
            error(w->offset, "wrong-type",
                  "\"workload\" must be an object");
            return;
        }
        checkKeys(*w, "\"workload\"",
                  {"abbrev", "domain", "model", "framework",
                   "submitter", "suite", "mode"});
        if (require(*w, "\"workload\"", "abbrev")) {
            getString(*w, "\"workload\"", "abbrev", &r_->spec.abbrev);
            if (const JsonValue *a = w->find("abbrev");
                a && a->isString() && a->str.empty())
                error(a->offset, "missing-field",
                      "\"workload\" key \"abbrev\" must not be "
                      "empty");
        }
        getString(*w, "\"workload\"", "domain", &r_->spec.domain);
        getString(*w, "\"workload\"", "model", &r_->spec.model_name);
        getString(*w, "\"workload\"", "framework",
                  &r_->spec.framework);
        getString(*w, "\"workload\"", "submitter",
                  &r_->spec.submitter);

        std::string token;
        if (getString(*w, "\"workload\"", "suite", &token)) {
            static const std::vector<std::string> suites = {
                "MLPerf", "DAWNBench", "DeepBench"};
            if (token == "MLPerf")
                r_->spec.suite = SuiteTag::MLPerf;
            else if (token == "DAWNBench")
                r_->spec.suite = SuiteTag::DawnBench;
            else if (token == "DeepBench")
                r_->spec.suite = SuiteTag::DeepBench;
            else
                error(w->find("suite")->offset, "unknown-suite",
                      "unknown suite '" + token + "'" +
                          sim::didYouMean(token, suites));
        }
        if (getString(*w, "\"workload\"", "mode", &token)) {
            static const std::vector<std::string> modes = {
                "training", "kernel-loop", "collective-loop"};
            if (token == "training")
                r_->spec.mode = RunMode::Training;
            else if (token == "kernel-loop")
                r_->spec.mode = RunMode::KernelLoop;
            else if (token == "collective-loop")
                r_->spec.mode = RunMode::CollectiveLoop;
            else
                error(w->find("mode")->offset, "unknown-mode",
                      "unknown mode '" + token + "'" +
                          sim::didYouMean(token, modes));
        }
    }

    void
    parseTensors(const JsonValue &doc)
    {
        const JsonValue *t = doc.find("tensors");
        if (!t)
            return;
        if (!t->isArray()) {
            error(t->offset, "wrong-type",
                  "\"tensors\" must be an array");
            return;
        }
        for (const JsonValue &decl : t->array) {
            if (!decl.isObject()) {
                error(decl.offset, "wrong-type",
                      "tensor declaration must be an object");
                continue;
            }
            checkKeys(decl, "tensor", {"id", "dtype", "shape"});
            std::string id;
            if (!require(decl, "tensor", "id") ||
                !getString(decl, "tensor", "id", &id) || id.empty())
                continue;
            if (tensors_.count(id)) {
                error(decl.offset, "tensor-redefined",
                      "tensor \"" + id + "\" declared twice");
                continue;
            }

            double dtype_bytes = 4.0;
            std::string dtype;
            if (getString(decl, "tensor", "dtype", &dtype)) {
                if (dtype == "fp32")
                    dtype_bytes = 4.0;
                else if (dtype == "fp16")
                    dtype_bytes = 2.0;
                else
                    error(decl.find("dtype")->offset,
                          "unknown-dtype",
                          "unknown dtype '" + dtype +
                              "' (expected fp32 or fp16)");
            }

            double elements = 1.0;
            bool shape_ok = false;
            const JsonValue *shape = require(decl, "tensor", "shape");
            if (shape) {
                if (!shape->isArray() || shape->array.empty()) {
                    error(shape->offset, "wrong-type",
                          "tensor \"" + id +
                              "\" shape must be a non-empty array");
                } else {
                    shape_ok = true;
                    for (const JsonValue &dim : shape->array) {
                        if (!dim.isNumber() ||
                            !std::isfinite(dim.number) ||
                            dim.number != std::floor(dim.number) ||
                            dim.number <= 0.0 ||
                            dim.number > kMaxShapeDim) {
                            error(dim.offset, "non-positive-dim",
                                  "tensor \"" + id +
                                      "\" dims must be positive "
                                      "integers");
                            shape_ok = false;
                            break;
                        }
                        elements *= dim.number;
                    }
                }
            }
            TensorDecl td;
            td.bytes = shape_ok ? elements * dtype_bytes : -1.0;
            td.offset = decl.offset;
            tensors_.emplace(id, td);
        }
    }

    void
    parseGraph(const JsonValue &doc)
    {
        const JsonValue *g = require(doc, "document", "graph");
        if (!g)
            return;
        if (!g->isObject()) {
            error(g->offset, "wrong-type",
                  "\"graph\" must be an object");
            return;
        }
        checkKeys(*g, "\"graph\"", {"name", "ops"});
        std::string name;
        getString(*g, "\"graph\"", "name", &name);
        r_->spec.graph = OpGraph(name);

        const JsonValue *ops = require(*g, "\"graph\"", "ops");
        if (!ops)
            return;
        if (!ops->isArray()) {
            error(ops->offset, "wrong-type",
                  "\"ops\" must be an array");
            return;
        }
        if (ops->array.empty()) {
            error(ops->offset, "empty-graph",
                  "\"ops\" must list at least one op");
            return;
        }
        if (ops->array.size() > opts_.max_ops) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "%zu ops exceed the ceiling of %zu",
                          ops->array.size(), opts_.max_ops);
            error(ops->offset, "resource-ceiling", msg);
            return;
        }
        for (std::size_t i = 0; i < ops->array.size(); ++i)
            parseOp(ops->array[i], i);
    }

    void
    parseOp(const JsonValue &node, std::size_t index)
    {
        char fallback[32];
        std::snprintf(fallback, sizeof(fallback), "op #%zu",
                      index + 1);
        std::string what = fallback;
        if (!node.isObject()) {
            error(node.offset, "wrong-type",
                  what + " must be an object");
            return;
        }
        std::string name;
        if (getString(node, what, "name", &name) && !name.empty())
            what = "op \"" + name + "\"";
        checkKeys(node, what,
                  {"name", "kind", "shape", "flops", "bytes",
                   "param_bytes", "activation_bytes", "inputs",
                   "outputs"});
        if (!require(node, what, "name") || name.empty()) {
            if (node.find("name") && name.empty())
                error(node.find("name")->offset, "missing-field",
                      what + " key \"name\" must not be empty");
            return;
        }

        OpKind kind = OpKind::Elementwise;
        std::string kind_token;
        if (!require(node, what, "kind"))
            return;
        if (!getString(node, what, "kind", &kind_token))
            return;
        if (!opKindFromToken(kind_token, &kind)) {
            error(node.find("kind")->offset, "unknown-op-kind",
                  what + ": unknown op kind '" + kind_token + "'" +
                      sim::didYouMean(kind_token, opKindTokens()));
            return;
        }

        const JsonValue *shape = node.find("shape");
        bool has_explicit = node.find("flops") ||
                            node.find("bytes") ||
                            node.find("param_bytes") ||
                            node.find("activation_bytes");
        if (shape && has_explicit) {
            error(shape->offset, "op-shape-conflict",
                  what + " gives both a shape and explicit "
                         "flops/bytes (give one)");
            return;
        }
        if (!shape && !has_explicit) {
            error(node.offset, "missing-field",
                  what + " needs a \"shape\" or explicit "
                         "flops/bytes");
            return;
        }

        Op op;
        bool ok = shape ? opFromShape(*shape, what, name, kind, &op)
                        : opFromExplicit(node, what, name, kind, &op);
        if (!ok)
            return;

        OpEdges edges;
        edges.offset = node.offset;
        edges.activation_bytes = op.activation_bytes;
        readRefs(node, what, "inputs", &edges.inputs);
        readRefs(node, what, "outputs", &edges.outputs);
        edges_.push_back(std::move(edges));
        r_->spec.graph.add(std::move(op));
    }

    bool
    opFromExplicit(const JsonValue &node, const std::string &what,
                   const std::string &name, OpKind kind, Op *out)
    {
        const std::size_t before = r_->diagnostics.size();
        double flops = 0.0, bytes = 0.0;
        double param_bytes = 0.0, activation_bytes = 0.0;
        if (require(node, what, "flops"))
            getRanged(node, what, "flops", 0.0,
                      opts_.max_total_work, &flops);
        if (require(node, what, "bytes"))
            getRanged(node, what, "bytes", 0.0,
                      opts_.max_total_work, &bytes);
        getRanged(node, what, "param_bytes", 0.0,
                  opts_.max_total_work, &param_bytes);
        getRanged(node, what, "activation_bytes", 0.0,
                  opts_.max_total_work, &activation_bytes);
        if (r_->diagnostics.size() != before)
            return false;
        out->name = name;
        out->kind = kind;
        out->flops = flops;
        out->bytes = bytes;
        out->param_bytes = param_bytes;
        out->activation_bytes = activation_bytes;
        return true;
    }

    bool
    opFromShape(const JsonValue &shape, const std::string &what,
                const std::string &name, OpKind kind, Op *out)
    {
        if (!shape.isObject()) {
            error(shape.offset, "wrong-type",
                  what + " key \"shape\" must be an object");
            return false;
        }
        const std::string swhat = what + " shape";
        const std::size_t before = r_->diagnostics.size();
        switch (kind) {
        case OpKind::Conv2d: {
            checkKeys(shape, swhat,
                      {"h", "w", "c_in", "c_out", "k", "stride",
                       "groups"});
            int h = 0, w = 0, c_in = 0, c_out = 0, k = 0;
            int stride = 1, groups = 1;
            bool have =
                require(shape, swhat, "h") &&
                require(shape, swhat, "w") &&
                require(shape, swhat, "c_in") &&
                require(shape, swhat, "c_out") &&
                require(shape, swhat, "k");
            have = getDim(shape, swhat, "h", &h) && have;
            have = getDim(shape, swhat, "w", &w) && have;
            have = getDim(shape, swhat, "c_in", &c_in) && have;
            have = getDim(shape, swhat, "c_out", &c_out) && have;
            have = getDim(shape, swhat, "k", &k) && have;
            if (shape.find("stride"))
                have = getDim(shape, swhat, "stride", &stride) && have;
            if (shape.find("groups"))
                have = getDim(shape, swhat, "groups", &groups) && have;
            if (!have || r_->diagnostics.size() != before)
                return false;
            if (c_in % groups != 0 || c_out % groups != 0) {
                error(shape.offset, "bad-shape",
                      swhat + ": groups must divide c_in and c_out");
                return false;
            }
            *out = conv2d(name, h, w, c_in, c_out, k, stride, groups);
            return true;
        }
        case OpKind::Gemm: {
            checkKeys(shape, swhat, {"m", "k", "n"});
            double m = 0, k = 0, n = 0;
            bool have = require(shape, swhat, "m") &&
                        require(shape, swhat, "k") &&
                        require(shape, swhat, "n");
            have = getExtent(shape, swhat, "m", &m) && have;
            have = getExtent(shape, swhat, "k", &k) && have;
            have = getExtent(shape, swhat, "n", &n) && have;
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = gemm(name, m, k, n);
            return true;
        }
        case OpKind::RnnCell: {
            checkKeys(shape, swhat,
                      {"gates", "input", "hidden", "steps"});
            int gates = 0, input = 0, hidden = 0, steps = 0;
            bool have = require(shape, swhat, "gates") &&
                        require(shape, swhat, "input") &&
                        require(shape, swhat, "hidden") &&
                        require(shape, swhat, "steps");
            have = getDim(shape, swhat, "gates", &gates) && have;
            have = getDim(shape, swhat, "input", &input) && have;
            have = getDim(shape, swhat, "hidden", &hidden) && have;
            have = getDim(shape, swhat, "steps", &steps) && have;
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = rnn(name, gates, input, hidden, steps);
            return true;
        }
        case OpKind::Attention: {
            checkKeys(shape, swhat, {"seq", "d_model"});
            int seq = 0, d_model = 0;
            bool have = require(shape, swhat, "seq") &&
                        require(shape, swhat, "d_model");
            have = getDim(shape, swhat, "seq", &seq) && have;
            have = getDim(shape, swhat, "d_model", &d_model) && have;
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = attention(name, seq, d_model);
            return true;
        }
        case OpKind::Embedding: {
            checkKeys(shape, swhat, {"rows", "dim", "lookups"});
            double rows = 0, lookups = 0;
            int dim = 0;
            bool have = require(shape, swhat, "rows") &&
                        require(shape, swhat, "dim") &&
                        require(shape, swhat, "lookups");
            have = getExtent(shape, swhat, "rows", &rows) && have;
            have = getDim(shape, swhat, "dim", &dim) && have;
            have =
                getExtent(shape, swhat, "lookups", &lookups) && have;
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = embedding(name, rows, dim, lookups);
            return true;
        }
        case OpKind::Elementwise: {
            checkKeys(shape, swhat,
                      {"elements", "flops_per_element"});
            double elements = 0, fpe = 1.0;
            bool have = require(shape, swhat, "elements") &&
                        getExtent(shape, swhat, "elements",
                                  &elements);
            if (shape.find("flops_per_element"))
                getRanged(shape, swhat, "flops_per_element", 0.0,
                          1e6, &fpe);
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = elementwise(name, elements, fpe);
            return true;
        }
        case OpKind::Norm:
        case OpKind::Pool:
        case OpKind::Softmax: {
            checkKeys(shape, swhat, {"elements"});
            double elements = 0;
            bool have = require(shape, swhat, "elements") &&
                        getExtent(shape, swhat, "elements",
                                  &elements);
            if (!have || r_->diagnostics.size() != before)
                return false;
            *out = kind == OpKind::Norm ? norm(name, elements)
                   : kind == OpKind::Pool ? pool(name, elements)
                                          : softmax(name, elements);
            return true;
        }
        case OpKind::Optimizer:
            error(shape.offset, "bad-shape",
                  what + ": op kind 'optimizer' has no shape form; "
                         "give explicit flops/bytes");
            return false;
        }
        error(shape.offset, "internal-error",
              what + ": unhandled op kind");
        return false;
    }

    void
    readRefs(const JsonValue &node, const std::string &what,
             const char *key,
             std::vector<std::pair<std::string, std::size_t>> *out)
    {
        const JsonValue *refs = node.find(key);
        if (!refs)
            return;
        if (!refs->isArray()) {
            error(refs->offset, "wrong-type",
                  what + " key \"" + std::string(key) +
                      "\" must be an array of tensor ids");
            return;
        }
        for (const JsonValue &ref : refs->array) {
            if (!ref.isString() || ref.str.empty()) {
                error(ref.offset, "wrong-type",
                      what + " " + std::string(key) +
                          " entries must be tensor-id strings");
                continue;
            }
            out->emplace_back(ref.str, ref.offset);
        }
    }

    void
    parsePipeline(const JsonValue &doc)
    {
        const JsonValue *p = doc.find("pipeline");
        if (!p)
            return;
        if (!p->isObject()) {
            error(p->offset, "wrong-type",
                  "\"pipeline\" must be an object");
            return;
        }
        checkKeys(*p, "\"pipeline\"", {"stages"});
        int stages = 0;
        if (require(*p, "\"pipeline\"", "stages") &&
            getDim(*p, "\"pipeline\"", "stages", &stages))
            r_->spec.pipeline_stages = stages;
    }

    void
    parseDataset(const JsonValue &doc)
    {
        const JsonValue *d = doc.find("dataset");
        if (!d)
            return;
        if (!d->isObject()) {
            error(d->offset, "wrong-type",
                  "\"dataset\" must be an object");
            return;
        }
        checkKeys(*d, "\"dataset\"",
                  {"name", "num_samples", "raw_bytes_per_sample",
                   "input_bytes_per_sample"});
        getString(*d, "\"dataset\"", "name", &r_->spec.dataset.name);
        getRanged(*d, "\"dataset\"", "num_samples", 0.0, 1e18,
                  &r_->spec.dataset.num_samples);
        getRanged(*d, "\"dataset\"", "raw_bytes_per_sample", 0.0,
                  1e15, &r_->spec.dataset.raw_bytes_per_sample);
        getRanged(*d, "\"dataset\"", "input_bytes_per_sample", 0.0,
                  1e15, &r_->spec.dataset.input_bytes_per_sample);
    }

    void
    parseConvergence(const JsonValue &doc)
    {
        const JsonValue *c = doc.find("convergence");
        if (!c)
            return;
        if (!c->isObject()) {
            error(c->offset, "wrong-type",
                  "\"convergence\" must be an object");
            return;
        }
        checkKeys(*c, "\"convergence\"",
                  {"quality_target", "base_epochs",
                   "reference_global_batch", "penalty_exponent",
                   "global_batch_cap", "eval_overhead"});
        ConvergenceModel &m = r_->spec.convergence;
        getString(*c, "\"convergence\"", "quality_target",
                  &m.quality_target);
        getRanged(*c, "\"convergence\"", "base_epochs", 0.0, 1e6,
                  &m.base_epochs);
        getRanged(*c, "\"convergence\"", "reference_global_batch",
                  1.0, 1e9, &m.reference_global_batch);
        getRanged(*c, "\"convergence\"", "penalty_exponent", 0.0,
                  16.0, &m.penalty_exponent);
        getRanged(*c, "\"convergence\"", "global_batch_cap", 0.0,
                  1e9, &m.global_batch_cap);
        getRanged(*c, "\"convergence\"", "eval_overhead", 0.0, 1.0,
                  &m.eval_overhead);
    }

    void
    parseHost(const JsonValue &doc)
    {
        const JsonValue *h = doc.find("host");
        if (!h)
            return;
        if (!h->isObject()) {
            error(h->offset, "wrong-type",
                  "\"host\" must be an object");
            return;
        }
        checkKeys(*h, "\"host\"",
                  {"cpu_core_us_per_sample",
                   "serial_cpu_us_per_sample",
                   "framework_dram_bytes", "per_gpu_dram_bytes",
                   "dataset_residency", "os_baseline_cpu_pct"});
        HostPipelineSpec &p = r_->spec.host;
        getRanged(*h, "\"host\"", "cpu_core_us_per_sample", 0.0, 1e9,
                  &p.cpu_core_us_per_sample);
        getRanged(*h, "\"host\"", "serial_cpu_us_per_sample", 0.0,
                  1e9, &p.serial_cpu_us_per_sample);
        getRanged(*h, "\"host\"", "framework_dram_bytes", 0.0, 1e15,
                  &p.framework_dram_bytes);
        getRanged(*h, "\"host\"", "per_gpu_dram_bytes", 0.0, 1e15,
                  &p.per_gpu_dram_bytes);
        getRanged(*h, "\"host\"", "dataset_residency", 0.0, 1.0,
                  &p.dataset_residency);
        getRanged(*h, "\"host\"", "os_baseline_cpu_pct", 0.0, 100.0,
                  &p.os_baseline_cpu_pct);
    }

    void
    parseCalibration(const JsonValue &doc)
    {
        const JsonValue *c = doc.find("calibration");
        if (!c)
            return;
        if (!c->isObject()) {
            error(c->offset, "wrong-type",
                  "\"calibration\" must be an object");
            return;
        }
        checkKeys(*c, "\"calibration\"",
                  {"per_gpu_batch", "comm_overlap",
                   "sync_penalty_base", "sync_penalty_log",
                   "tc_efficiency", "fp32_gradients",
                   "staged_overlap_retention",
                   "staged_iteration_penalty",
                   "iteration_overhead_us", "reference_code_derate",
                   "kernel_iterations", "collective_bytes",
                   "collective_iterations"});
        WorkloadSpec &s = r_->spec;
        const std::string what = "\"calibration\"";
        if (const JsonValue *m = c->find("per_gpu_batch")) {
            double v = 0.0;
            if (getNumber(*c, what, "per_gpu_batch", &v)) {
                if (v <= 0.0 || v > 1e9)
                    error(m->offset, "out-of-range",
                          what + " key \"per_gpu_batch\" must be in "
                                 "(0, 1e9]");
                else
                    s.per_gpu_batch = v;
            }
        }
        getRanged(*c, what, "comm_overlap", 0.0, 1.0,
                  &s.comm_overlap);
        getRanged(*c, what, "sync_penalty_base", 0.0, 10.0,
                  &s.sync_penalty_base);
        getRanged(*c, what, "sync_penalty_log", 0.0, 10.0,
                  &s.sync_penalty_log);
        if (const JsonValue *m = c->find("tc_efficiency")) {
            double v = 0.0;
            if (getNumber(*c, what, "tc_efficiency", &v)) {
                if (v <= 0.0 || v > 1.0)
                    error(m->offset, "out-of-range",
                          what + " key \"tc_efficiency\" must be in "
                                 "(0, 1]");
                else
                    s.tc_efficiency = v;
            }
        }
        getBool(*c, what, "fp32_gradients", &s.fp32_gradients);
        getRanged(*c, what, "staged_overlap_retention", 0.0, 1.0,
                  &s.staged_overlap_retention);
        getRanged(*c, what, "staged_iteration_penalty", 0.0, 10.0,
                  &s.staged_iteration_penalty);
        getRanged(*c, what, "iteration_overhead_us", 0.0, 1e9,
                  &s.iteration_overhead_us);
        if (const JsonValue *m = c->find("reference_code_derate")) {
            double v = 0.0;
            if (getNumber(*c, what, "reference_code_derate", &v)) {
                if (v <= 0.0 || v > 100.0)
                    error(m->offset, "out-of-range",
                          what + " key \"reference_code_derate\" "
                                 "must be in (0, 100]");
                else
                    s.reference_code_derate = v;
            }
        }
        if (const JsonValue *m = c->find("kernel_iterations")) {
            double v = 0.0;
            if (getNumber(*c, what, "kernel_iterations", &v)) {
                if (v <= 0.0 || v > 1e9)
                    error(m->offset, "out-of-range",
                          what + " key \"kernel_iterations\" must "
                                 "be in (0, 1e9]");
                else
                    s.kernel_iterations = v;
            }
        }
        getRanged(*c, what, "collective_bytes", 0.0, 1e15,
                  &s.collective_bytes);
        if (const JsonValue *m = c->find("collective_iterations")) {
            double v = 0.0;
            if (getNumber(*c, what, "collective_iterations", &v)) {
                if (v <= 0.0 || v > 1e9)
                    error(m->offset, "out-of-range",
                          what + " key \"collective_iterations\" "
                                 "must be in (0, 1e9]");
                else
                    s.collective_iterations = v;
            }
        }
    }

    // ---- semantic tier ----------------------------------------------

    void
    checkSemantics(const JsonValue &doc)
    {
        checkTensorEdges();
        checkTotals(doc);
        checkModeRequirements(doc);
    }

    void
    checkTensorEdges()
    {
        // First producer of every tensor under the sequence
        // execution rule; a second producer redefines it.
        std::map<std::string, std::size_t> producer;
        for (std::size_t i = 0; i < edges_.size(); ++i) {
            for (const auto &[id, off] : edges_[i].outputs) {
                if (!tensors_.count(id)) {
                    error(off, "dangling-tensor",
                          "output tensor \"" + id +
                              "\" is not declared in \"tensors\"");
                    continue;
                }
                auto [it, fresh] = producer.emplace(id, i);
                if (!fresh)
                    error(off, "tensor-redefined",
                          "tensor \"" + id +
                              "\" is produced by more than one op");
            }
        }
        for (std::size_t i = 0; i < edges_.size(); ++i) {
            for (const auto &[id, off] : edges_[i].inputs) {
                if (!tensors_.count(id)) {
                    error(off, "dangling-tensor",
                          "input tensor \"" + id +
                              "\" is not declared in \"tensors\"");
                    continue;
                }
                // A tensor no op produces is an external input; one
                // produced at or after this op breaks the sequence
                // order — the cycle the linear graph cannot express.
                auto it = producer.find(id);
                if (it != producer.end() && it->second >= i)
                    error(off, "graph-cycle",
                          "tensor \"" + id +
                              "\" is consumed before it is "
                              "produced (ops execute in sequence)");
            }
            // Declared output bytes must agree with the op's
            // activation footprint (shape x dtype).
            if (edges_[i].outputs.empty())
                continue;
            double declared = 0.0;
            bool known = true;
            for (const auto &[id, off] : edges_[i].outputs) {
                auto it = tensors_.find(id);
                if (it == tensors_.end() || it->second.bytes < 0.0) {
                    known = false;
                    break;
                }
                declared += it->second.bytes;
            }
            if (known && edges_[i].activation_bytes > 0.0 &&
                std::fabs(declared - edges_[i].activation_bytes) >
                    0.5) {
                error(edges_[i].offset, "shape-mismatch",
                      "declared output tensor bytes (" +
                          sim::jsonDouble(declared) +
                          ") do not match the op's activation "
                          "bytes (" +
                          sim::jsonDouble(
                              edges_[i].activation_bytes) +
                          ")");
            }
        }
    }

    void
    checkTotals(const JsonValue &doc)
    {
        if (r_->spec.graph.empty())
            return;
        GraphTotals totals = r_->spec.graph.totals();
        const double work = totals.trainFlops();
        const double traffic = totals.trainBytes();
        if (!std::isfinite(work) || work > opts_.max_total_work ||
            !std::isfinite(traffic) ||
            traffic > opts_.max_total_work ||
            !std::isfinite(totals.param_bytes) ||
            totals.param_bytes > opts_.max_total_work) {
            error(doc.offset, "resource-ceiling",
                  "graph totals exceed the work ceiling of " +
                      sim::jsonDouble(opts_.max_total_work));
        }
    }

    void
    checkModeRequirements(const JsonValue &doc)
    {
        if (r_->spec.mode == RunMode::Training) {
            if (r_->spec.dataset.num_samples <= 0.0)
                error(doc.offset, "dataset-required",
                      "training mode needs \"dataset\" with "
                      "num_samples > 0");
            if (r_->spec.convergence.base_epochs <= 0.0)
                error(doc.offset, "dataset-required",
                      "training mode needs \"convergence\" with "
                      "base_epochs > 0");
        }
        if (r_->spec.mode == RunMode::CollectiveLoop &&
            r_->spec.collective_bytes <= 0.0)
            error(doc.offset, "collective-bytes-required",
                  "collective-loop mode needs "
                  "calibration.collective_bytes > 0");
    }

    struct TensorDecl {
        double bytes = -1.0; ///< negative when the shape was bad
        std::size_t offset = 0;
    };

    struct OpEdges {
        std::vector<std::pair<std::string, std::size_t>> inputs;
        std::vector<std::pair<std::string, std::size_t>> outputs;
        double activation_bytes = 0.0;
        std::size_t offset = 0;
    };

    const std::string &text_;
    const ImportOptions &opts_;
    ImportResult *r_;
    std::map<std::string, TensorDecl> tensors_;
    std::vector<OpEdges> edges_;
};

/** Map a parser error string back to a diagnostic code. */
const char *
syntaxCode(const std::string &error)
{
    if (error.find("document too large") != std::string::npos)
        return "doc-too-large";
    if (error.find("nesting too deep") != std::string::npos)
        return "too-deep";
    if (error.find("too many tokens") != std::string::npos)
        return "too-many-tokens";
    if (error.find("bad number") != std::string::npos)
        return "bad-number";
    return "json-syntax";
}

/** Byte offset carried in a parser error's " at byte N" suffix. */
std::size_t
syntaxOffset(const std::string &error)
{
    std::size_t pos = error.rfind(" at byte ");
    if (pos == std::string::npos)
        return 0;
    return static_cast<std::size_t>(
        std::strtoull(error.c_str() + pos + 9, nullptr, 10));
}

ImportResult
runImport(const sim::JsonValue &doc, const std::string &text,
          const ImportOptions &opts)
{
    ImportResult result;
    try {
        Importer imp(text, opts, &result);
        imp.run(doc);
    } catch (const std::exception &e) {
        // The importer must never abort on hostile input; anything
        // escaping to here is an importer bug surfaced as a
        // diagnostic so long-running services stay up.
        Diagnostic d;
        d.code = "internal-error";
        d.message = std::string("importer exception: ") + e.what();
        result.diagnostics.push_back(std::move(d));
        result.ok = false;
    }
    return result;
}

} // namespace

ImportResult
importWorkload(const std::string &text, const ImportOptions &opts)
{
    sim::JsonLimits limits;
    limits.max_depth = opts.max_depth;
    limits.max_bytes = opts.max_bytes;
    limits.max_tokens = opts.max_tokens;
    sim::JsonValue doc;
    std::string parse_error;
    if (!sim::JsonValue::parse(text, limits, &doc, &parse_error)) {
        ImportResult result;
        Diagnostic d;
        d.code = syntaxCode(parse_error);
        d.message = parse_error;
        d.byte = syntaxOffset(parse_error);
        sim::jsonLineCol(text, d.byte, &d.line, &d.col);
        result.diagnostics.push_back(std::move(d));
        return result;
    }
    return runImport(doc, text, opts);
}

ImportResult
importParsed(const sim::JsonValue &doc, const std::string &source_text,
             const ImportOptions &opts)
{
    return runImport(doc, source_text, opts);
}

ImportResult
importWorkloadFile(const std::string &path, const ImportOptions &opts)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ImportResult result;
        Diagnostic d;
        d.code = "io-error";
        d.message = "cannot read '" + path + "'";
        result.diagnostics.push_back(std::move(d));
        return result;
    }
    // Read at most one byte past the budget: enough to tell
    // "too large" from "fits", without staging an arbitrarily
    // large file in memory first.
    std::string text;
    text.resize(opts.max_bytes + 1);
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return importWorkload(text, opts);
}

} // namespace mlps::wl::import
