# Convenience targets. The container has no registry access, so every
# cargo invocation runs --offline against the vendored dependencies.

CARGO := cargo
OFFLINE := --offline

.PHONY: check test test-repeat doc examples alloc-census lint lint-accept miri tsan soak vopr vopr-nightly benchmark benchmark-test benchmark-pairs repro-check clippy clean

# The full gate: release build, the root package's tests, every
# workspace crate's tests (`test`), a release-profile compile of
# vapro-core's tests on its own (no feature unification through
# vapro-bench, no debug_assertions), workspace clippy over all targets
# with warnings denied (as CI runs it), rustdoc over the workspace with
# warnings denied (`doc`), the static-analysis pass, sanitizer runs (skipped gracefully
# where the toolchain component is absent), the long-stream soak, the
# benchmark package's own tests (the only step that compiles
# `benchmark/` against the workspace), the committed `repro all` output,
# the VOPR fault-injection simulation, the allocator census of the
# window path (`alloc-census`), then vapro-core's unit tests and its
# stream ≡ one-shot tests twenty times over (`test-repeat`). `lint` and `vopr` rewrite the
# committed LINT_report.json and VOPR_report.json, so the gate ends by
# failing if either moved (`git diff --exit-code`, as CI checks them),
# or if any tracked file under the frozen `benchmark/` did — its
# Cargo.lock included, which every target that builds the package must
# put back (`keep_frozen_lock`).
# Throughput is measured by `make benchmark`, and gated base-vs-head by
# `benchmark compare` in CI.
check:
	$(CARGO) build --release $(OFFLINE)
	$(CARGO) test -q $(OFFLINE)
	$(MAKE) test
	$(CARGO) test --release $(OFFLINE) -p vapro-core --no-run
	$(MAKE) clippy
	$(MAKE) doc
	$(MAKE) lint
	$(MAKE) miri
	$(MAKE) tsan
	$(MAKE) soak
	$(MAKE) benchmark-test
	$(MAKE) examples
	$(MAKE) repro-check
	$(MAKE) vopr
	$(MAKE) alloc-census
	$(MAKE) test-repeat
	git diff --exit-code -- VOPR_report.json LINT_report.json benchmark/

# Workspace static analysis, three rules over one site-finding pass and
# a whole-workspace call graph: R3 float-hygiene (per file), R5
# panic-freedom across the decode/admission doors' call trees, R7 lock
# hygiene; see DESIGN.md §10. (Hot-path allocation is measured by
# `alloc-census`, not linted.) Fails on any unwaived finding or on a
# per-rule waiver-count increase over the committed LINT_report.json.
# SARIF goes under target/ for CI's code-scanning upload.
lint:
	$(CARGO) run --release $(OFFLINE) -q -p vapro-lint -- --root . \
		--report LINT_report.json --sarif target/vapro-lint.sarif

# Deliberately accept a larger waiver budget (rewrites LINT_report.json).
lint-accept:
	$(CARGO) run --release $(OFFLINE) -q -p vapro-lint -- --root . \
		--report LINT_report.json --sarif target/vapro-lint.sarif --accept-waivers

# Bounded Miri pass over the wire-codec property tests (UB check on the
# byte-level decode paths). Skips when the miri component is not
# installed — CI runs it on nightly.
miri:
	@if $(CARGO) miri --version >/dev/null 2>&1; then \
		PROPTEST_CASES=8 MIRIFLAGS="-Zmiri-disable-isolation" \
			$(CARGO) miri test $(OFFLINE) -p vapro-core --test wire_properties; \
	else \
		echo "miri: component not installed, skipping (CI covers this)"; \
	fi

# ThreadSanitizer build of the persistent pool's own tests and the
# analysis-stage tests that run on it (help-while-wait, panic
# hand-back). Needs a nightly toolchain with rust-src; skips when
# unavailable — CI covers it.
tsan:
	@if rustc +nightly --version >/dev/null 2>&1 \
		&& rustup +nightly component list 2>/dev/null | grep -q "rust-src (installed)"; then \
		export RUSTFLAGS="-Zsanitizer=thread" RUST_TEST_THREADS=2 PROPTEST_CASES=8; \
		host=$$(rustc -vV | sed -n 's/host: //p'); \
		$(CARGO) +nightly test $(OFFLINE) -Zbuild-std -p rayon --target $$host --lib \
		&& $(CARGO) +nightly test $(OFFLINE) -Zbuild-std -p vapro-core --target $$host \
			--lib -- stage::tests; \
	else \
		echo "tsan: nightly toolchain with rust-src not installed, skipping (CI covers this)"; \
	fi

test:
	$(CARGO) test -q $(OFFLINE) --workspace

# Every program under examples/, run in release (≈0.4 s together); fails
# on the first one that exits non-zero.
examples:
	@for f in examples/*.rs; do \
		e=$$(basename $$f .rs); \
		$(CARGO) run --release $(OFFLINE) -q --example $$e > /dev/null \
			|| { echo "examples: $$e failed"; exit 1; }; \
	done

# vapro-core's unit tests and its stream ≡ one-shot tests
# (`tests/reference_equivalence.rs`, at the default pipeline depth) 20
# times: the stage, pool and ingestor tests assert bounds that depend on
# thread scheduling, and an assertion that fails one run in four must
# fail the PR, not the next one.
test-repeat:
	@for i in $$(seq 1 20); do \
		$(CARGO) test -q $(OFFLINE) -p vapro-core --lib --test reference_equivalence \
			|| { echo "test-repeat: run $$i of 20 failed"; exit 1; }; \
	done

# What the window path asks of the allocator (a counting allocator in
# the test binary only), in the profile that ships. The close path: the
# ring streamed through the inline ingestor at n and 4n fragments per
# location over 8 and 32 call sites — allocator calls per steady-state
# closing push no more at 4n, calls per admitted frame equal, bytes per
# added fragment and closed window under the committed ceiling. The
# reports: heap blocks a `WindowReport` owns under a fixed ceiling and
# the same over 8 and 64 call sites, built inline and on a pool worker.
# The drill-down: allocator calls of one region diagnosis the same over
# a cluster of n and of 4n members. Counts are per thread, so the
# harness's own parallelism and the pool's workers cannot move them (no
# `--test-threads=1` needed).
alloc-census:
	$(CARGO) test -q --release $(OFFLINE) -p vapro-core --test report_heap_shape

clippy:
	$(CARGO) clippy $(OFFLINE) --workspace --all-targets -- -D warnings

# rustdoc over every workspace crate with warnings denied (as CI runs
# it): a doc link to a moved or private item fails here instead of
# rendering as plain text.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc $(OFFLINE) --no-deps --workspace

# VOPR deterministic simulation run (PR profile, canaries compiled) —
# the one seeded fault-injection harness: clean transports must stay
# bit-identical to the one-shot analysis, hostile ones (drops,
# duplicates, reordering, bit flips, rank deaths and births) must keep
# the window cover and the delivery accounting sound, every push
# predicted by the admission oracle. Gates on >=80% fault-point coverage, every required invariant
# executed, zero violations, same-seed determinism and a 100%
# canary-mutation score; rewrites the committed VOPR_report.json so CI
# can `git diff --exit-code` it as a ratchet.
vopr:
	$(CARGO) run --release $(OFFLINE) -p vapro-vopr --features canary --bin vopr -- --report VOPR_report.json

# The wider nightly seed sweep (no report rewrite: seeds differ from the
# committed PR-profile report by design).
vopr-nightly:
	$(CARGO) run --release $(OFFLINE) -p vapro-vopr --features canary --bin vopr -- --profile nightly

# Release-mode long-stream soak: >=1000 half-overlapped windows through
# the streaming ingestor plus a ~900-window 3-job fleet, proving
# bit-identity to the one-shot analysis, a shrinking arena peak under
# finer windowing (eviction works), an arena plateau past the stream
# midpoint, and zero Fragment clones — with an internal wall-clock cap
# so a super-linear regression fails loudly.
soak:
	$(CARGO) test -q --release $(OFFLINE) -p vapro-bench --test soak -- --include-ignored

# The one throughput driver (BENCHMARK.json; its own package and target
# dir): encoded frames in, WindowReports out, four workloads, results in
# benchmark/out/. `benchmark-test` is its unit and pipeline tests.
#
# `benchmark/Cargo.lock` is frozen with the package, but cargo rewrites it
# whenever a workspace crate's dependency list has moved since; both
# targets that build the package therefore put the file back afterwards,
# whatever the build's exit status.
FROZEN_LOCK := benchmark/Cargo.lock
keep_frozen_lock = saved=$$(mktemp) && cp $(FROZEN_LOCK) $$saved && \
	{ $(1); status=$$?; cp $$saved $(FROZEN_LOCK); rm -f $$saved; exit $$status; }

benchmark:
	@$(call keep_frozen_lock,$(CARGO) run --release $(OFFLINE) --quiet --manifest-path benchmark/Cargo.toml -- run --seed 1)

benchmark-test:
	@$(call keep_frozen_lock,$(CARGO) test $(OFFLINE) --manifest-path benchmark/Cargo.toml)

# How a performance claim is measured on a small box (choosing-metrics
# guide §8): `make benchmark-pairs BASE=<rev> [N=10] [SEED=1] [WORKLOAD=…]`
# exports BASE under the git-ignored .bench_build/, builds it and the
# working tree, runs N pairs of `benchmark run` alternating which side
# goes first, and prints per metric × workload the medians, [Q1–Q3], the
# pairs the change won and every run. It restores each tree's frozen
# `benchmark/Cargo.lock` after building it, as the two targets above do.
benchmark-pairs:
	@test -n "$(BASE)" || { echo "usage: make benchmark-pairs BASE=<rev> [N=10] [SEED=1] [WORKLOAD=name]"; exit 2; }
	python3 scripts/benchmark_pairs.py --base $(BASE) --pairs $(or $(N),10) --seed $(or $(SEED),1) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# `repro_output.txt` is what `repro all` prints (every table and figure,
# in virtual time: seeded, thread-count independent, ≈2 s). A change
# that moves a number regenerates the file in the same commit:
# `cargo run --release --offline -q -p vapro-bench --bin repro -- all > repro_output.txt`.
repro-check:
	$(CARGO) run --release $(OFFLINE) -q -p vapro-bench --bin repro -- all | diff - repro_output.txt

clean:
	$(CARGO) clean
