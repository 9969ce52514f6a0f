#!/bin/sh
# Polymorphic-primitive references of library modules:
#
#   sh tools/prof/poly_refs.sh MODULE...       (e.g. Task Client Metrics)
#
# Builds the library, then lists, for each module's native object, its
# references to
#   - the generic Stdlib.Hashtbl find, find_opt, mem, replace, add and
#     remove, which hash with caml_hash and compare keys with
#     compare_val (the copies inside Hashtbl.Make instances are not
#     listed: their symbols are told apart by the installed stdlib's
#     .cmx);
#   - the polymorphic comparisons caml_equal, caml_notequal,
#     caml_compare, caml_lessthan and the other orderings;
#   - Stdlib.min and Stdlib.max, which compare through them whatever
#     the argument type.
# Dev builds pass -opaque, so a reference in the object is a call at
# run time.  Exits 1 if any module has one, 2 if a module is not found.
set -eu
if [ $# -lt 1 ]; then
  echo "usage: sh tools/prof/poly_refs.sh MODULE..." >&2
  exit 2
fi
# From the source tree: build, then read the objects under _build.  As
# the action of the poly-refs alias (dune sets INSIDE_DUNE for rule
# actions): the script runs from the build context, whose objects are
# the rule's dependencies, so there is nothing to build.
cd "$(dirname "$0")/../.."
if [ -n "${INSIDE_DUNE:-}" ]; then
  lib=lib
else
  dune build 2>/dev/null
  lib=_build/default/lib
fi
generic=$(ocamlobjinfo "$(ocamlc -where)/stdlib__Hashtbl.cmx" |
  sed -n 's/^   [0-9]*: function \(camlStdlib__Hashtbl\.\(find\|find_opt\|mem\|replace\|add\|remove\)_[0-9]*\) .*(closed).*/\1/p' |
  sed 's/\./\\./' | tr '\n' '|')
if [ -z "$generic" ]; then
  echo "poly_refs: no generic Hashtbl symbols found in the stdlib's .cmx" >&2
  exit 2
fi
pattern=" U (${generic}caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max)_[0-9]+)\$"
found=0
for m in "$@"; do
  objs=$(find "$lib" -path "*/native/*__$m.o")
  if [ -z "$objs" ]; then
    echo "$m: no object under $lib" >&2
    exit 2
  fi
  for o in $objs; do
    refs=$(nm "$o" | grep -E "$pattern" | sed 's/.* U //; s/_[0-9]*$//' | sort -u || true)
    if [ -z "$refs" ]; then
      echo "$m: none"
    else
      found=1
      echo "$m:" $refs
    fi
  done
done
exit $found
