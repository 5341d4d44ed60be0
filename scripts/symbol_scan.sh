#!/usr/bin/env bash
# Dead-function scan: lists every out-of-line function (`nm` type `T`) that
# a library under src/ defines and that no production executable keeps, and
# fails on any such function that the seams file does not name. Production
# means every tool main, bench/ program and example; test executables do not
# count, so a function that only tests reach is reported too: delete it with
# the tests that exist only for it, or, if a named test uses it as a
# reference oracle or to drive the code deterministically, list it as a seam.
#
#   scripts/symbol_scan.sh <build-dir> <seams-file> [extra-object ...]
#
# The build must link with --gc-sections over -ffunction-sections objects
# (the top-level CMakeLists.txt sets both), so each executable keeps exactly
# the functions it can reach; a function inlined at every call survives in
# none. Extra objects are scanned like the src/ libraries (the negative
# control passes one that defines an unused function).
#
# Seams file: one `symbol  reason` per line, the demangled symbol as printed
# here (`[abi:cxx11]` tags and default template arguments dropped), two or
# more spaces, then the reason; `#` starts a comment. A seam line naming a
# symbol that is gone, or that a production executable now keeps, is stale
# and fails the scan too.
#
# Exit 0 when every unkept function is a listed seam, 1 otherwise.

set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <build-dir> <seams-file> [extra-object ...]" >&2
    exit 2
fi
build="$1"
seams="$2"
shift 2

# The src/ libraries, not their object directories: an archive is rebuilt
# from the current sources, while the object of a deleted source file stays
# behind in CMakeFiles/.
mapfile -t objects < <(find "${build}/src" -name '*.a' | sort)
objects+=("$@")

mapfile -t programs < <(find "${build}/src" "${build}/bench" "${build}/examples" \
                            -path '*/CMakeFiles' -prune -o -type f -perm -u+x \
                            -print 2>/dev/null | sort)
elf_programs=()
for p in "${programs[@]}"; do
    if [[ "$(head -c 4 "${p}" | od -An -c | tr -d ' ')" == '177ELF' ]]; then
        elf_programs+=("${p}")
    fi
done
if [[ ${#objects[@]} -eq 0 || ${#elf_programs[@]} -eq 0 ]]; then
    echo "symbol_scan: no src/ libraries or production executables under ${build}" >&2
    exit 2
fi

# Demangled names with the library's spelled-out defaults dropped, so a seam
# line reads like the declaration: std::string, std::vector<T>, std::span<T>.
readable() {
    sed -e 's/\[abi:cxx11\]//g' \
        -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/std::basic_ostream<char, std::char_traits<char> >/std::ostream/g' \
        -e 's/, 18446744073709551615ul>/>/g' \
        -e 's/std::vector<\([^<>]*\), std::allocator<\1> >/std::vector<\1>/g' \
        -e 's/std::vector<\([^<>]*\), std::allocator<\1 > >/std::vector<\1>/g' \
        -e 's/std::unique_ptr<\([^<>]*\), std::default_delete<\1> >/std::unique_ptr<\1>/g'
}

# Mangled names: every global function of an object, every symbol of a program.
defined="$(nm -P --defined-only "${objects[@]}" 2>/dev/null |
           awk 'NF >= 2 && $2 == "T" { print $1 }' | sort -u)"
kept="$(nm -P --defined-only "${elf_programs[@]}" 2>/dev/null |
        awk 'NF >= 2 { print $1 }' | sort -u)"
unkept="$(comm -23 <(printf '%s\n' "${defined}") <(printf '%s\n' "${kept}") |
          sed '/^$/d' | c++filt | readable | sort -u)"

declare -A seam_reason=()
while IFS= read -r line; do
    [[ -z "${line// }" || "${line}" =~ ^[[:space:]]*# ]] && continue
    symbol="${line%%  *}"
    reason="${line#"${symbol}"}"
    reason="${reason#"${reason%%[! ]*}"}"
    seam_reason["${symbol}"]="${reason}"
done < "${seams}"

status=0
declare -A listed=()
while IFS= read -r symbol; do
    [[ -z "${symbol}" ]] && continue
    listed["${symbol}"]=1
    if [[ -n "${seam_reason[${symbol}]+set}" ]]; then
        echo "seam      ${symbol}  (${seam_reason[${symbol}]})"
    else
        echo "UNSEAMED  ${symbol}  no production executable keeps it"
        status=1
    fi
done <<< "${unkept}"

for symbol in "${!seam_reason[@]}"; do
    if [[ -z "${listed[${symbol}]:-}" ]]; then
        echo "STALE     ${symbol}  listed in $(basename "${seams}") but absent or kept by a production executable"
        status=1
    fi
done

if [[ ${status} -eq 0 ]]; then
    echo "symbol_scan: every function no production executable keeps is a named seam"
else
    echo "symbol_scan: FAILED"
fi
exit ${status}
