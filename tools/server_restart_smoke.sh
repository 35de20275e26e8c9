#!/usr/bin/env bash
# Kill-and-warm-restart smoke for the analysis server's snapshot path.
#
# Five legs over the golden JSONL session (answers are compared on their
# "results" lines only, with cache_hit normalized — a warm cache answers
# hit where a cold one answers miss, but the numbers must be bitwise
# identical):
#
#   A cold    serve with --snapshot; the session's shutdown drains and
#             publishes the snapshot atomically.
#   B warm    serve again from the published snapshot; answers must be
#             byte-identical to the cold run and stderr must announce the
#             warm start.
#   C torn    stomp bytes inside the snapshot; the server must detect the
#             corruption, degrade to a cold start and still answer
#             byte-identically.
#   D kill    serve off a FIFO, kill -9 mid-session; the previously
#             published snapshot must be untouched (write-temp-then-rename
#             never exposes a torn file) and a fresh warm restart must
#             still answer byte-identically.
#   E old     rewrite the snapshot's magic to the retired unicon-cache-v1;
#             the server must name the old format, start cold, answer
#             byte-identically and save a unicon-cache-v2 snapshot.
#
# Usage: tools/server_restart_smoke.sh <build-dir>
set -u

builddir=${1:?usage: tools/server_restart_smoke.sh <build-dir>}
repo=$(cd "$(dirname "$0")/.." && pwd)
serve="$builddir/tools/unicon_serve"
session="$repo/tests/golden/server_session.jsonl"

if [ ! -x "$serve" ]; then
  echo "server_restart_smoke: $serve not found or not executable" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
snap="$work/cache.snap"
fail=0

note() { echo "server_restart_smoke: $*"; }
flunk() {
  echo "FAIL $*" >&2
  fail=1
}

answers() { grep '"results"' "$1" | sed 's/"cache_hit":[a-z]*/"cache_hit":_/g'; }

# --- leg A: cold run publishes a snapshot -------------------------------
"$serve" --no-timing --snapshot "$snap" <"$session" >"$work/cold.out" 2>"$work/cold.err"
status=$?
[ $status -eq 0 ] || flunk "leg A: cold run exited $status"
[ -s "$snap" ] || flunk "leg A: no snapshot published at $snap"
grep -q 'snapshot saved' "$work/cold.err" || flunk "leg A: shutdown did not report the snapshot save"
head -n 1 "$snap" | grep -q '^unicon-cache-v2$' || flunk "leg A: snapshot missing the format magic"
answers "$work/cold.out" >"$work/cold.answers"
[ -s "$work/cold.answers" ] || flunk "leg A: cold run produced no answers"

# --- leg B: warm restart is bit-identical -------------------------------
"$serve" --no-timing --snapshot "$snap" <"$session" >"$work/warm.out" 2>"$work/warm.err"
[ $? -eq 0 ] || flunk "leg B: warm run exited nonzero"
grep -q 'warm start' "$work/warm.err" || flunk "leg B: server did not announce the warm start"
grep -q ' 0 corrupt' "$work/warm.err" || flunk "leg B: pristine snapshot reported corruption"
answers "$work/warm.out" >"$work/warm.answers"
if ! diff -u "$work/cold.answers" "$work/warm.answers" >&2; then
  flunk "leg B: warm answers differ from the cold run"
fi
cp "$snap" "$work/published.snap"

# --- leg C: torn snapshot is detected and degrades to cold start --------
printf 'CORRUPTCORRUPT!!' | dd of="$snap" bs=1 seek=24 conv=notrunc 2>/dev/null
"$serve" --no-timing --snapshot "$snap" <"$session" >"$work/torn.out" 2>"$work/torn.err"
[ $? -eq 0 ] || flunk "leg C: server crashed on a torn snapshot"
if grep -q ' 0 corrupt' "$work/torn.err" && ! grep -q 'truncated' "$work/torn.err"; then
  flunk "leg C: corruption was not detected"
fi
answers "$work/torn.out" >"$work/torn.answers"
if ! diff -u "$work/cold.answers" "$work/torn.answers" >&2; then
  flunk "leg C: answers after a torn snapshot differ from the cold run"
fi

# --- leg D: kill -9 mid-session leaves the published snapshot intact ----
cp "$work/published.snap" "$snap"
fifo="$work/requests.fifo"
mkfifo "$fifo"
"$serve" --no-timing --snapshot "$snap" <"$fifo" >"$work/kill.out" 2>"$work/kill.err" &
pid=$!
disown "$pid" 2>/dev/null || true  # keep bash's "Killed" job notice out of the logs
exec 3>"$fifo"
head -n 1 "$session" >&3
answered=0
for _ in $(seq 1 100); do
  if grep -q '"results"' "$work/kill.out" 2>/dev/null; then
    answered=1
    break
  fi
  sleep 0.1
done
[ $answered -eq 1 ] || flunk "leg D: server never answered over the FIFO"
kill -9 "$pid" 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
exec 3>&-
if ! cmp -s "$work/published.snap" "$snap"; then
  flunk "leg D: kill -9 modified the published snapshot"
fi
if ls "$snap".tmp* >/dev/null 2>&1; then
  flunk "leg D: a torn temp file was left behind"
fi
"$serve" --no-timing --snapshot "$snap" <"$session" >"$work/after.out" 2>"$work/after.err"
[ $? -eq 0 ] || flunk "leg D: warm restart after kill exited nonzero"
grep -q 'warm start' "$work/after.err" || flunk "leg D: restart after kill was not warm"
answers "$work/after.out" >"$work/after.answers"
if ! diff -u "$work/cold.answers" "$work/after.answers" >&2; then
  flunk "leg D: answers after kill + warm restart differ from the cold run"
fi

# --- leg E: a v1 snapshot is named, ignored and replaced by v2 ----------
{ echo 'unicon-cache-v1'; tail -n +2 "$work/published.snap"; } >"$snap"
"$serve" --no-timing --snapshot "$snap" <"$session" >"$work/old.out" 2>"$work/old.err"
[ $? -eq 0 ] || flunk "leg E: server exited nonzero on a v1 snapshot"
grep -q 'unicon-cache-v1' "$work/old.err" || flunk "leg E: stderr did not name the old format"
answers "$work/old.out" >"$work/old.answers"
if ! diff -u "$work/cold.answers" "$work/old.answers" >&2; then
  flunk "leg E: answers after a v1 snapshot differ from the cold run"
fi
head -n 1 "$snap" | grep -q '^unicon-cache-v2$' || flunk "leg E: shutdown did not save a v2 snapshot"

if [ $fail -eq 0 ]; then
  note "all legs passed (cold, warm, torn, kill -9 + warm restart, old format)"
fi
exit $fail
