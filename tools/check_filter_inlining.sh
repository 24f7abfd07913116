#!/usr/bin/env bash
# Checks that the filter loops append their positions inline.
#
# Usage: tools/check_filter_inlining.sh BUILD_DIR
#   BUILD_DIR is a configured and built Release tree (cmake -B BUILD_DIR).
#
# Disassembles the objects of src/exec/selection.cc, join.cc and scan.cc
# (objdump -dr -C) and lists every function, other than the vector's own,
# that calls or jumps to an out-of-line
# std::vector<unsigned int, recomp::AlignedAllocator<unsigned int>>
# ::emplace_back or ::push_back: a filter loop that pays a call per match.
# Exits 1 when it finds one, 0 when there is none. Inlining is GCC's
# decision, so with another compiler the check is skipped (exit 0).

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
BUILD_DIR="$1"
CACHE="${BUILD_DIR}/CMakeCache.txt"
if [[ ! -f "${CACHE}" ]]; then
  echo "error: ${CACHE} not found; configure and build first" >&2
  exit 2
fi

COMPILER_ID="$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  "${BUILD_DIR}"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)"
if [[ "${COMPILER_ID}" != "GNU" ]]; then
  echo "check_filter_inlining: skipped, compiler is '${COMPILER_ID}'" \
       "(the check reads GCC's inlining)"
  exit 0
fi
if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Release$' "${CACHE}"; then
  echo "error: ${BUILD_DIR} is not a Release build" >&2
  exit 2
fi

VECTOR='std::vector<unsigned int, recomp::AlignedAllocator<unsigned int> ?>::'
found=0
for source in selection join scan; do
  object="${BUILD_DIR}/CMakeFiles/recomp.dir/src/exec/${source}.cc.o"
  if [[ ! -f "${object}" ]]; then
    echo "error: ${object} not found; build the recomp target first" >&2
    exit 2
  fi
  # A call or jump names its target in the operand (same section) or in
  # the relocation that follows it (another section); the vector's own
  # functions, whose names may carry a return type, are not callers.
  callers="$(objdump -dr -C "${object}" | awk -v vector="${VECTOR}" '
    /^[0-9a-f]+ <.*>:$/ {
      fn = substr($0, index($0, "<") + 1)
      fn = substr(fn, 1, length(fn) - 2)
      own = fn ~ ("^([^<(]* )?" vector)
      next
    }
    own { next }
    /\t(call|j[a-z]+) / && $0 ~ (vector "(emplace_back|push_back)") &&
        !/\+0x[0-9a-f]+>$/ { count[fn]++ }
    /R_X86_64_(PLT32|PC32)\t/ && $0 ~ (vector "(emplace_back|push_back)") {
      count[fn]++
    }
    END { for (f in count) printf "  %s (x%d)\n", f, count[f] }')"
  if [[ -n "${callers}" ]]; then
    echo "${source}.cc.o calls the out-of-line append from:"
    echo "${callers}"
    found=1
  fi
done

if [[ "${found}" -ne 0 ]]; then
  exit 1
fi
echo "check_filter_inlining: no out-of-line append in selection, join, scan"
