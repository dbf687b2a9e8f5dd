EXAMPLES = src/cy_smoother/data/examples
PYTHON ?= python3
# The package is run from the source tree; no install is needed.
CLI = PYTHONPATH=src $(PYTHON) -m cy_smoother.cli

.PHONY: test acceptance bench-selftest report-hash traffic-coverage check golden

test:
	$(PYTHON) -m pytest -q

acceptance:
	$(PYTHON) -m pytest tests/test_acceptance.py -v -s

# Self-tests of the benchmark harness (not part of `test`).
bench-selftest:
	$(PYTHON) -m pytest bench -q

# SHA-256 of the 2700 bench reports (seeds 1-5); exits 1 if it moved from the pinned digest.
report-hash:
	$(PYTHON) tools/report_hash.py

# The src/ lines that the 2700 bench reports and the golden commands never run
# (a review aid, not part of `check`).
traffic-coverage:
	$(PYTHON) tools/traffic_coverage.py

# The three gates a change must pass: the suite, the pinned report digest and
# the harness self-tests.
check: test report-hash bench-selftest

# Replay every bundled computation through the CLI.
golden:
	$(CLI) smooth $(EXAMPLES)/quick.json
	$(CLI) smooth $(EXAMPLES)/pair1_a.json
	$(CLI) smooth $(EXAMPLES)/pair1_b.json
	$(CLI) move-top $(EXAMPLES)/pair1_a.json --from 2
	$(CLI) smooth $(EXAMPLES)/triple_mu.json
	$(CLI) smooth $(EXAMPLES)/triple_nu.json
	$(CLI) invariants cubic --file $(EXAMPLES)/mu_tensor.json
	$(CLI) invariants cubic --file $(EXAMPLES)/nu_tensor.json
	$(CLI) invariants rr --rho3 2 --rhoc2 44 --n 8
	$(CLI) fano search --rank-one
	$(CLI) fano cy --v1 X22 --v2 MM-12.3-15
	$(CLI) fano cy --v1 X2 --v2 dP1
	$(CLI) fano groups
