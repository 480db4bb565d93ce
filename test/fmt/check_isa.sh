#!/usr/bin/env bash
# Instruction-set gate for the kernel stubs (lib/kernels/*_stubs.o),
# run as part of `dune runtest`.  It disassembles the objects and
# fails on:
#
#  1. AVX-512 outside dgemm_macro_avx512: a zmm, opmask or
#     xmm16-31/ymm16-31 register, or any EVEX-encoded instruction.
#     Gemm_kernel calls that function only after the CPU reported
#     avx512f; AVX-512 anywhere else would die with SIGILL on an
#     AVX2-only host.
#  2. A fused multiply-add (vfmadd/vfmsub/vfnmadd/vfnmsub) in
#     exact_stubs.o: the Cholesky diagonal factor, the row solve and
#     the LCG fill round every multiply and subtract on their own,
#     which their golden digests pin bit for bit.
#
# Usage: check_isa.sh [dir holding dgemm_stubs.o and exact_stubs.o]
# Without objdump it prints a notice and passes.
set -u
dir=${1:-.}

if ! command -v objdump >/dev/null 2>&1; then
  echo "isa: objdump not installed, skipping the instruction-set check"
  exit 0
fi

# One line per instruction: "<function>|<encoding bytes>|<assembly>".
listing() {
  objdump -d --insn-width=16 "$1" | awk -F'\t' '
    /^[0-9a-f]+ <.*>:$/ { sym = $0; sub(/^[0-9a-f]+ </, "", sym); sub(/>:$/, "", sym); next }
    NF >= 3 && $1 ~ /^ *[0-9a-f]+:$/ { print sym "|" $2 "|" $3 }'
}

status=0
for obj in dgemm_stubs.o exact_stubs.o; do
  if [ ! -f "$dir/$obj" ]; then
    echo "isa: $dir/$obj not found"
    status=1
    continue
  fi
  bad=$(listing "$dir/$obj" | awk -F'|' '
    $1 ~ /^dgemm_macro_avx512([.].*)?$/ { next }
    {
      bytes = $2
      # EVEX: first opcode byte 0x62 (64-bit mode), after any address-
      # size or segment prefix
      while (bytes ~ /^(67|26|2e|36|3e|64|65) /) bytes = substr(bytes, 4)
      if (bytes ~ /^62 / || $3 ~ /%zmm|%k[0-7]|%[xy]mm(1[6-9]|2[0-9]|3[01])/)
        print "  " $1 ": " $3
    }')
  if [ -n "$bad" ]; then
    echo "isa: AVX-512 code outside dgemm_macro_avx512 in $obj:"
    echo "$bad" | head -20
    status=1
  fi
done

if [ -f "$dir/exact_stubs.o" ]; then
  fused=$(listing "$dir/exact_stubs.o" | awk -F'|' '
    $3 ~ /^vfn?m(add|sub)/ { print "  " $1 ": " $3 }')
  if [ -n "$fused" ]; then
    echo "isa: fused multiply-add in exact_stubs.o (results must stay bit-exact):"
    echo "$fused" | head -20
    status=1
  fi
fi

if [ "$status" -eq 0 ]; then
  echo "isa: AVX-512 confined to dgemm_macro_avx512; no FMA in exact_stubs.o"
fi
exit "$status"
