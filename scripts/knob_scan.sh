#!/usr/bin/env bash
# Dead-knob scan: lists every field of a `*Options` / `*Config` /
# `SearchSpace` struct declared under src/ that no code outside tests/ ever
# writes (`.field =`, `->field =`, `.field +=`, ...), and fails on any such
# field that the seams file does not name. A field that only tests set is a
# knob nothing turns: make it a constant at its one use, or, if a named test
# needs a non-default value to reach a production path, list it as a seam.
#
#   scripts/knob_scan.sh <repo-root> <seams-file> [extra-header ...]
#
# Seams file: one `Struct::field  reason` per line; `#` starts a comment. A
# seam line naming a field that no longer exists, or that code outside tests/
# now writes, is stale and fails the scan too. Extra headers are scanned for
# structs like src/ headers (the negative control passes one with an unset
# field). Writes are matched by field name alone, so a field that shares its
# name with a written field of another struct passes; the scan is a floor.
#
# Exit 0 when every unwritten field is a listed seam, 1 otherwise.

set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <repo-root> <seams-file> [extra-header ...]" >&2
    exit 2
fi
root="$1"
seams="$2"
shift 2

# Struct::field<TAB>file:line for every data member of a matching struct.
list_fields() {
    awk '
    function strip(s) { sub(/\/\/.*/, "", s); return s }
    {
        line = strip($0)
        if (depth == 0 && match(line, /struct[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/struct[ \t]+/, "", name)
            if (line !~ /;[ \t]*$/ && (name ~ /(Options|Config)$/ || name == "SearchSpace")) {
                current = name
            }
        }
        if (current != "" && depth == 1) {
            decl = line
            sub(/=.*/, "", decl)
            if (line ~ /;[ \t]*$/ && decl !~ /[()]/ &&
                decl !~ /^[ \t]*(static|using|friend|typedef|return|struct|enum)[ \t]/ &&
                match(decl, /[A-Za-z_][A-Za-z0-9_]*[ \t]*(\[[^]]*\])?[ \t]*;?[ \t]*$/)) {
                field = substr(decl, RSTART, RLENGTH)
                sub(/[ \t]*(\[[^]]*\])?[ \t]*;?[ \t]*$/, "", field)
                printf "%s::%s\t%s:%d\n", current, field, FILENAME, FNR
            }
        }
        opens = gsub(/\{/, "{", line)
        closes = gsub(/\}/, "}", line)
        if (current != "") depth += opens - closes
        if (current != "" && depth <= 0 && closes > 0) { current = ""; depth = 0 }
    }' "$@"
}

mapfile -t headers < <(find "${root}/src" -name '*.hpp' | sort)
fields="$(list_fields "${headers[@]}" "$@")"

# Every source file outside tests/ that could write a field.
mapfile -t writers < <(find "${root}/src" "${root}/bench" "${root}/examples" \
                           \( -name '*.cpp' -o -name '*.hpp' \) | sort)

is_written() {
    grep -qE "(\.|->)$1(\.[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]*[-+*/|&]?=([^=]|$)" \
        "${writers[@]}"
}

seam_reason() {
    awk -v key="$1" '!/^[ \t]*#/ && $1 == key { $1 = ""; sub(/^ +/, ""); print; found = 1; exit }
                     END { exit !found }' "${seams}"
}

status=0
declare -A unwritten=()
while IFS=$'\t' read -r key where; do
    [[ -z "${key}" ]] && continue
    field="${key#*::}"
    if is_written "${field}"; then
        continue
    fi
    unwritten["${key}"]=1
    if reason="$(seam_reason "${key}")"; then
        echo "seam      ${key}  (${reason})"
    else
        echo "UNSEAMED  ${key}  ${where#"${root}"/}: no writer outside tests/"
        status=1
    fi
done <<< "${fields}"

while read -r key _; do
    [[ -z "${key}" || "${key}" == \#* ]] && continue
    if [[ -z "${unwritten[${key}]:-}" ]]; then
        echo "STALE     ${key}  listed in $(basename "${seams}") but absent or written outside tests/"
        status=1
    fi
done < "${seams}"

if [[ ${status} -eq 0 ]]; then
    echo "knob_scan: every unwritten option field is a named seam"
else
    echo "knob_scan: FAILED"
fi
exit ${status}
