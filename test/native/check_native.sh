#!/usr/bin/env bash
# Native-backend identity gate for `dune runtest`.
#
# For every example program, asserts that:
#   1. `cascabelc run --native` produces bit-identical stdout (and the
#      same exit code) as the interpreted translated run,
#   2. `--native --stats` reports at least one variant loaded from the
#      kernels object, at least one native task and zero interpreted
#      fallbacks: every task ran as compiled code, and a run that
#      submits no task fails,
#   3. `--native --stats` reports `# native main: compiled`: the
#      program's host code ran as the library's compiled entry, and
#   4. the standalone executable built from the `--emit-c` sources via
#      the emitted Makefile prints exactly what the serial interpreter
#      prints. The standalone runtime's `blas_dgemm` is a plain triple
#      loop, not the packed kernel the interpreter runs, so step 4 holds
#      bit for bit only for inputs where every sum is exact, as in
#      dgemm.c's small-integer fill; otherwise the two agree to rounding.
#
# A C toolchain is an optional dev dependency: when `cc` is not on
# PATH the check is skipped (with a notice) rather than failed, the
# same pattern as the ocamlformat gate, so the suite stays runnable in
# minimal containers.
set -u

root="${1:-../..}"
cascabelc="$root/bin/cascabelc.exe"

if ! command -v cc >/dev/null 2>&1; then
  echo "native: no C toolchain on PATH, skipping native identity check"
  exit 0
fi

bad=0

for prog in "$root"/examples/programs/*.c; do
  name=$(basename "$prog")
  interp=$("$cascabelc" run "$prog" --zoo xeon-2gpu 2>/dev/null)
  rc_i=$?
  stats=$(mktemp)
  native=$("$cascabelc" run "$prog" --zoo xeon-2gpu --native --stats 2>"$stats")
  rc_n=$?
  summary=$(grep '^# native:' "$stats")
  main=$(grep '^# native main:' "$stats")
  rm -f "$stats"
  if [ "$rc_n" -eq 3 ]; then
    # cc vanished between the probe above and the run; treat as skip.
    echo "native: $name: toolchain unavailable at runtime, skipped"
    continue
  fi
  if [ "$rc_i" -ne "$rc_n" ] || [ "$interp" != "$native" ]; then
    echo "native: $name: compiled run differs from interpreter"
    echo "  interp (rc=$rc_i): $interp"
    echo "  native (rc=$rc_n): $native"
    bad=1
  else
    echo "native: $name: compiled run bit-identical"
  fi
  tasks=$(printf '%s\n' "$summary" | sed -n 's/.*; \([0-9][0-9]*\) tasks native,.*/\1/p')
  loaded=$(printf '%s\n' "$summary" | sed -n 's/^# native: \([0-9][0-9]*\) variants loaded.*/\1/p')
  if [ "${loaded:-0}" -ge 1 ]; then
    echo "native: $name: $loaded variants loaded"
  else
    echo "native: $name: no variant loaded from the kernels object"
    echo "  ${summary:-no '# native:' line}"
    bad=1
  fi
  case "$summary" in
    *", 0 interpreted fallbacks")
      if [ "${tasks:-0}" -ge 1 ]; then
        echo "native: $name: zero interpreted fallbacks"
      else
        echo "native: $name: no task ran natively under --native"
        echo "  $summary"
        bad=1
      fi ;;
    *)
      echo "native: $name: interpreted fallbacks under --native"
      echo "  $summary"
      bad=1 ;;
  esac
  if [ "$main" = "# native main: compiled" ]; then
    echo "native: $name: main compiled"
  else
    echo "native: $name: main not compiled under --native"
    echo "  ${main:-no '# native main:' line}"
    bad=1
  fi
done

# Standalone executables need make as well; skip quietly when absent.
if command -v make >/dev/null 2>&1; then
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  for prog in "$root"/examples/programs/*.c; do
    name=$(basename "$prog" .c)
    dir="$tmp/$name"
    if ! "$cascabelc" run "$prog" --zoo xeon-2gpu --emit-c "$dir" >/dev/null; then
      echo "native: $name: --emit-c failed"
      bad=1
      continue
    fi
    if ! make -s -C "$dir" all >/dev/null 2>&1; then
      echo "native: $name: standalone build from emitted Makefile failed"
      bad=1
      continue
    fi
    serial=$("$cascabelc" run "$prog" --serial 2>/dev/null)
    standalone=$("$dir/cascabel_out.exe")
    if [ "$serial" != "$standalone" ]; then
      echo "native: $name: standalone exe differs from serial interpreter"
      echo "  serial:     $serial"
      echo "  standalone: $standalone"
      bad=1
    else
      echo "native: $name: standalone exe bit-identical"
    fi
  done
else
  echo "native: make not installed, skipping standalone-exe check"
fi

if [ "$bad" -ne 0 ]; then
  echo "native: identity check failed"
  exit 1
fi
echo "native: all programs bit-identical"
