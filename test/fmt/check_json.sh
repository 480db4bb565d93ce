#!/usr/bin/env bash
# JSON gate for `dune runtest`.
#
# Obs.Json.to_text is the one JSON writer under lib/, bin/ and bench/.
# Fails when a hand-rolled escaper comes back: a json_escape function,
# a \u%04x formatter outside lib/obs/json.ml, or OCaml's %S (whose
# \ddd escapes JSON cannot read) in a format string that writes JSON
# keys or quotes.
set -u

root="${1:-../..}"
dirs=("$root/lib" "$root/bin" "$root/bench")

hits=$(
  grep -rn --include='*.ml' --include='*.mli' -e 'json_escape' "${dirs[@]}"
  grep -rn --include='*.ml' -F '\u%04x' "${dirs[@]}" |
    grep -v '/lib/obs/json\.ml:'
  grep -rn --include='*.ml' -E '\\"[^"]*%S|%S[^"]*\\"' "${dirs[@]}"
)

if [ -n "$hits" ]; then
  echo "$hits"
  echo "json: hand-written JSON found; build an Obs.Json.t and use Obs.Json.to_text"
  exit 1
fi
echo "json: every JSON writer goes through Obs.Json.to_text"
