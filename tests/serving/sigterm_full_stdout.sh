#!/bin/sh
# SIGTERM drains culinary_serve while it is blocked writing to a reader that
# never reads: stdout is a FIFO this script holds open and leaves full. Two
# inputs reach the two ways a blocked write ends:
#   - 2,000 loadgen point lines, whose answers are each shorter than the
#     pipe's atomic-write size: the write that finds the pipe full moves
#     nothing and fails with EINTR;
#   - one score request with a 100,000-byte ingredient name, whose answer
#     is longer than the whole pipe: the signal cuts that write short.
# Each run must exit 0 within 5 s of the signal instead of waiting for room.
#
#   sh sigterm_full_stdout.sh <culinary_serve> <loadgen>
serve=$1
loadgen=$2

rm -f full.fifo full.err full_points.jsonl full_long.jsonl
"$loadgen" --small --count=2000 --out=full_points.jsonl || exit 1
printf '{"id":"long","op":"score","ingredients":["tomato","%s"]}\n' \
  "$(head -c 100000 /dev/zero | tr '\0' a)" > full_long.jsonl || exit 1

for input in full_points.jsonl full_long.jsonl; do
  rm -f full.fifo
  mkfifo full.fifo || exit 1
  exec 4<> full.fifo
  "$serve" --small --threads=2 --requests=$input > full.fifo 2> full.err &
  pid=$!
  i=0
  until grep -q ready full.err 2> /dev/null; do
    i=$((i + 1))
    if [ $i -gt 600 ]; then kill -9 $pid; cat full.err; exit 1; fi
    sleep 0.1
  done
  sleep 1
  kill -TERM $pid
  i=0
  while kill -0 $pid 2> /dev/null; do
    i=$((i + 1))
    if [ $i -gt 50 ]; then
      kill -9 $pid
      echo "$input: still running 5 s after SIGTERM"
      cat full.err
      exit 1
    fi
    sleep 0.1
  done
  wait $pid
  rc=$?
  exec 4<&-
  cat full.err
  if [ $rc -ne 0 ]; then echo "$input: exit $rc"; exit 1; fi
done
