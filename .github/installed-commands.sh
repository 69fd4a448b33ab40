#!/usr/bin/env bash
# Runs the sltrack command that `pip install .` puts on PATH, from the root
# of a checkout: the README quick start outside the checkout, the bytes the
# reference digests pin, and CRLF copies of the CSVs that evaluate reads.
set -euo pipefail

sltrack bench -c configs/reference.json -n 20
# a fresh interpreter leaves the BLAS thread variables as it found them
env -u OPENBLAS_NUM_THREADS -u GOTO_NUM_THREADS -u OMP_NUM_THREADS \
  -u OPENBLAS_DEFAULT_NUM_THREADS \
  python -c "import os, sltrack; assert 'OPENBLAS_NUM_THREADS' not in os.environ"
# the README quick start, outside the checkout
work="${RUNNER_TEMP:-$(mktemp -d)}"
cp configs/reference.json "$work/reference.json"
cd "$work"
sltrack simulate -c reference.json -o frames/
# the bytes test_simulate_reference_digest pins: the frames in name order, then truth.csv
test "$(cat frames/*.pgm frames/truth.csv | sha256sum)" = \
  "d98f13deded8a60ba1cc5e5eeeb00c904f51b011895ad517627d2b1954cba953  -"
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
# the bytes test_track_and_evaluate_reference_digests pins for src/
sha256sum -c - <<'DIGESTS'
af3af51628b908d2e7a4adb99e80c853ea240e7f8fc09b853ae13e93a0a20c93  estimates.csv
9d1f708bc8d73fa907436ec40ddd948ed48ba7dbadda261e74eeb6c1721b7710  metrics.json
DIGESTS
# rows that end in \r\n read as the same rows
sed 's/$/\r/' estimates.csv > estimates-crlf.csv
sed 's/$/\r/' frames/truth.csv > truth-crlf.csv
sltrack evaluate estimates-crlf.csv truth-crlf.csv --json metrics-crlf.json
cmp metrics.json metrics-crlf.json
