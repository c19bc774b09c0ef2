/**
 * @file
 * Per-connection session state: line framing and output buffering.
 *
 * The transport hands a session raw bytes as they arrive; the session
 * re-frames them into newline-terminated request lines, enforcing the
 * protocol's line-length ceiling so one hostile client cannot balloon
 * server memory. Output is buffered per session so a slow reader only
 * delays itself.
 */

#ifndef MLPSIM_SERVE_SESSION_H
#define MLPSIM_SERVE_SESSION_H

#include <cstddef>
#include <string>
#include <vector>

namespace mlps::serve {

/**
 * Incremental newline framer with a bounded partial-line buffer.
 * Bytes go in via feed(); complete lines (without the terminator)
 * come out. A partial line exceeding `max_line` trips the overflow
 * latch: the session is poisoned and should be dropped after one
 * protocol-error response.
 */
class LineBuffer
{
  public:
    explicit LineBuffer(std::size_t max_line) : max_line_(max_line) {}

    /**
     * Absorb `n` bytes; append every completed line to `lines`.
     * @return false once the overflow latch trips (and thereafter).
     */
    bool feed(const char *data, std::size_t n,
              std::vector<std::string> *lines);

    bool overflowed() const { return overflowed_; }

  private:
    std::size_t max_line_;
    std::string partial_;
    bool overflowed_ = false;
};

/** One connected client, as the transport tracks it. */
struct Session {
    int fd = -1;
    std::string client;     ///< stable id ("c<fd-seq>") used everywhere
    LineBuffer lines;       ///< inbound framer
    std::string outbox;     ///< bytes queued toward the client
    bool closing = false;   ///< drop after the outbox drains

    Session(int fd_, std::string client_, std::size_t max_line)
        : fd(fd_), client(std::move(client_)), lines(max_line) {}
};

} // namespace mlps::serve

#endif // MLPSIM_SERVE_SESSION_H
