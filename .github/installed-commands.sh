#!/usr/bin/env bash
# Runs the sltrack command that `pip install .` puts on PATH, from the root
# of a checkout: the README quick start outside the checkout, the bytes the
# reference digests pin, and CRLF copies of the CSVs that evaluate reads.
set -euo pipefail

# the one file that pins the reference outputs, which the tests read too
digests="$PWD/tests/reference-outputs.sha256"

benched="$(sltrack bench -c configs/reference.json -n 20)"
echo "$benched"
# acceptance 4 reads the fps between "->" and "fps" on this one line
grep -Eqx '20 frames in [0-9]+\.[0-9]{4} s -> ([0-9]+\.[0-9]|inf) fps \(20 detections\)' \
  <<<"$benched"
# a fresh interpreter leaves the BLAS thread variables as it found them
env -u OPENBLAS_NUM_THREADS -u GOTO_NUM_THREADS -u OMP_NUM_THREADS \
  -u OPENBLAS_DEFAULT_NUM_THREADS \
  python -c "import os, sltrack; assert 'OPENBLAS_NUM_THREADS' not in os.environ"
# the README quick start, outside the checkout
work="${RUNNER_TEMP:-$(mktemp -d)}"
cp configs/reference.json "$work/reference.json"
cd "$work"
sltrack simulate -c reference.json -o frames/
# simulate.bin: the frames in name order, then truth.csv
cat frames/*.pgm frames/truth.csv > simulate.bin
grep ' simulate\.bin$' "$digests" | sha256sum -c -
# frame 0 holds the user, whose near foot outshines the wall line: calibrate
# refuses it as a usage error, with one line on stderr and none on stdout
status=0
refused="$(sltrack calibrate -c reference.json frames/000000.pgm 2>refused.err)" \
  || status=$?
test "$status" -eq 2
test -z "$refused"
test "$(wc -l <refused.err)" -eq 1
grep -Eqx 'error: no wall line: brightest row 22[4-7] is lit across 0\.2[0-9]{2} of its width, want at least 0\.5 \(is the scene empty\?\)' \
  refused.err
python -c "
from sltrack import SceneState, load_config, render, write_pgm
cfg = load_config('reference.json')
write_pgm(render(cfg.rig, SceneState(user=None), cfg.noise, cfg.intensity,
                 index=10**6), 'empty.pgm')"
sltrack calibrate -c reference.json empty.pgm -o cal.txt
# calibrate reads the uint8 frame; on every numpy the matrix installs it
# finds the reference wall row
printf 'v_b=160\n' | cmp - cal.txt
# also streams SLT1 packets; UDP needs no listener on the port, and every
# frame's packet is sent
streamed="$(sltrack track -c reference.json --calibration cal.txt frames/ \
  -o estimates.csv --stream 127.0.0.1:47800)"
echo "$streamed"
grep -Fqx "streamed 200 packets to 127.0.0.1:47800 (0 dropped, 0 failed)" \
  <<<"$streamed"
sltrack evaluate estimates.csv frames/truth.csv --json metrics.json
# all three reference outputs, simulate.bin again among them
sha256sum -c "$digests"
# rows that end in \r\n read as the same rows
sed 's/$/\r/' estimates.csv > estimates-crlf.csv
sed 's/$/\r/' frames/truth.csv > truth-crlf.csv
sltrack evaluate estimates-crlf.csv truth-crlf.csv --json metrics-crlf.json
cmp metrics.json metrics-crlf.json
