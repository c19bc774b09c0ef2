#!/bin/sh
# The training path never calls into attribution: no source under
# src/{train,net,exec,sys,wl,models,hw,sim} includes a header of
# obs/attrib/, directly or through another header of src/. Attribution
# is computed only where it is asked for (explain, the report's "Where
# the time goes" section, trace lanes).
#
#   layering_attrib_test.sh path/to/src
cd "$1" || exit 1

# One "file included-path" line per include of every source.
grep -rHo --include='*.h' --include='*.cc' \
    '^[[:space:]]*#[[:space:]]*include[[:space:]]*["<][^">]*' . |
    sed 's|^\./||; s|:.*["<]| |' |
    awk -v dirs="train net exec sys wl models hw sim" '
    { file[NR] = $1; inc[NR] = $2; seen[$1] = 1 }
    function attrib(path) { return path ~ /^obs\/attrib\// || path in via }
    END {
        # Headers outside obs/attrib/ that reach it, each with the
        # header it includes on the way, grown until nothing is added.
        do {
            grew = 0
            for (i = 1; i <= NR; i++)
                if (file[i] ~ /\.h$/ && file[i] !~ /^obs\/attrib\// &&
                    !(file[i] in via) && attrib(inc[i])) {
                    via[file[i]] = inc[i]
                    grew = 1
                }
        } while (grew)

        n = split(dirs, dir, " ")
        for (d = 1; d <= n; d++) {
            found = 0
            for (f in seen)
                if (index(f, dir[d] "/") == 1)
                    found = 1
            if (!found) {
                print "src/" dir[d] "/ includes nothing: the check would pass vacuously"
                bad = 1
            }
        }
        for (i = 1; i <= NR; i++) {
            split(file[i], part, "/")
            if (index(" " dirs " ", " " part[1] " ") && attrib(inc[i])) {
                chain = file[i]
                for (h = inc[i]; h in via; h = via[h])
                    chain = chain " -> " h
                print "src/" chain " -> " h
                bad = 1
            }
        }
        exit bad
    }'
