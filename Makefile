# Tier-1 gate: everything a PR must keep green. The chaos soak and other
# long tests hide behind -short here; `make soak` runs them in full.
GO ?= go

.PHONY: tier1 build fmt vet test race race-core fuzz-smoke powercut-sweep bench bench-smoke bench-scale bench-telemetry one-stack one-relocator one-ledger one-index one-trace trace-demo fleet-smoke fleet-demo metrics-smoke lifetime-smoke soak figures demo clean

tier1: build fmt vet one-stack one-relocator one-ledger one-index one-trace race race-core fuzz-smoke powercut-sweep fleet-smoke metrics-smoke lifetime-smoke bench-smoke

build:
	$(GO) build ./...

# Every .go file is gofmt-clean: prints the offenders and fails.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then echo "fmt: gofmt -l reports:"; echo "$$bad"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-checked short run (the chaos soaks and long experiments run
# shortened or not at all).
race:
	$(GO) test -race -short ./...

# Full (non-short) race run over the concurrency-sensitive core: the
# event engine, the FTL (per-die degraded transitions), the multi-queue
# host front end, the crash-consistency subsystem (the power-cut sweep,
# every seventh event cut on a copy),
# the telemetry registry/tracer, the network block service (the live
# chaos soak, TestChaosSoak: six TCP clients against the single-threaded
# core through faults, two power cuts and a die kill, in two 5 s legs),
# the read-retry pipeline layers (nand ladder/latency model, core retry
# table and its checkpoint serialization), and the block trace parser
# (its workers and the in-order merge, at GOMAXPROCS 1, 2 and 8).
race-core:
	$(GO) test -race ./internal/sim ./internal/ftl ./internal/host ./internal/recovery ./internal/telemetry ./internal/server ./internal/fleet ./internal/cache ./internal/nand ./internal/core ./internal/lifetime ./internal/workload

# Ten seconds of native fuzzing per target: ecc.Decode against its
# per-codeword reference on any bit pattern as a BER; the connection
# reader's loop (readFrame, ParseHello, ParseIO) on any byte stream; the
# checkpoint decoder on any bytes, raw and with a valid CRC (an error, or
# a state that re-encodes to the same image); the cube policy's
# RestoreState on any bytes (an error that leaves AppendState's output
# unchanged, or a state that re-encodes to the same bytes); the two
# decoders a durable write's commit rests on — the journal on any bytes,
# raw and as one sealed frame (records that re-encode to the prefix they
# came from, torn exactly when bytes remain), and the OOB record parser
# (a record it accepts re-encodes to the same bytes); the per-page index
# against a Go map on any sequence of Put / Delete / Get; the block
# trace parser on any bytes, strict and tolerant, against the string
# parser it replaced (the same error — sentinel, line, detail — or the
# same records, sources and counts; and a trace
# whose arrivals start at 0 and never go back, with every extent at
# least one page at a non-negative LPN);
# cubesim's -age decoder (an error naming -age, or a positive age of at
# most 100 years); and host.ParseQueue, the -tenant decoder both cubesim
# and cubeserved use, with each binary's extra field (an error, or a
# named queue with non-negative weight, depth and SLO and a rate cap
# that is 0 or a finite rate of at least 1e-9 IOPS). A failing input is
# written under the package's testdata/fuzz/. The engine minimises each
# new interesting input for at most a second: left at its default (60 s)
# it spent most of FuzzDecodeCheckpoint's ten seconds minimising, the
# exec counter at 0/sec.
fuzz-smoke:
	$(GO) test ./internal/ecc -run '^$$' -fuzz FuzzDecodeMatchesReference -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/recovery -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRestoreState -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/recovery -run '^$$' -fuzz FuzzDecodeJournal -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/ftl -run '^$$' -fuzz FuzzDecodeOOB -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/pool -run '^$$' -fuzz FuzzIndexMatchesMap -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzParseTimedTrace -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./cmd/cubesim -run '^$$' -fuzz FuzzParseAge -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/host -run '^$$' -fuzz FuzzParseQueue -fuzztime 10s -fuzzminimizetime 1s

# Acked implies recoverable, at every instant: a short durable-ack run of
# writes and one trim in sixteen on a tiny stack.Build device (and on one
# whose dies run two host programs at once, the first again mounted by a
# full OOB scan, and a refresh and wear-leveling stack aged three years
# before its run) is cut on a copy after each of its events — inside
# programs, journal flushes, patched checkpoints and GC — and every cut
# must remount with verify and lose no acked write and no durable trim;
# two runs with program failures are cut after every fifth. Two negative
# controls must lose some: the stack leg with the roll-forward rule of
# the journal-gated ack, and both checkpoint legs with the checkpoint's
# mapping standing, unread, at every tie with a GC copy. A cut is an
# image of the media taken while the run goes on, so each leg is one pass
# over its run. The race legs above (race, race-core) take every seventh
# cut of the sweeps and skip the second control.
powercut-sweep:
	$(GO) test ./internal/recovery -count=1 -run 'PowerCutAtEveryEvent|PowerCutAfterProgramFailures' -v

# The repository's benchmark (bench/README.md): six workloads, both
# clocks, per-layer decomposition; results land in bench/out/. Compare
# two result sets with `go run ./bench -compare old.json new.json`.
bench:
	$(GO) run ./bench

# Four workloads at a fifth of the usual length: keeps the harness
# building and its correctness checks running in tier 1 — digest
# equality across repetitions and zero failed operations on the
# simulated ones (lifetime-3y adds the 36-month age jump, refresh and
# wear leveling, and its verify leg's data check; fleet-replay the
# trace parser, the 2Q write-back cache and the fleet merge); on the
# served one the audit that every acked write Stats as mapped, then
# Restart() with verification. The numbers of a run this short mean
# nothing.
bench-smoke:
	$(GO) run ./bench -workload mixed-fresh -seconds 1
	$(GO) run ./bench -workload lifetime-3y -seconds 1
	$(GO) run ./bench -workload served-loopback -seconds 1
	$(GO) run ./bench -workload fleet-replay -seconds 1

# Multi-die scaling gate: fails if a 2x4 backend delivers less than
# 1.5x the single-die Mixed IOPS (or if same-seed replay diverges).
bench-scale:
	$(GO) test -run TestBenchScale -v ./internal/experiment

# Observability overhead check: Mixed with telemetry fully off vs fully
# on (tracer + 1ms sampler). The telemetry-off number is the one the
# <2% overhead contract in EXPERIMENTS.md is measured against.
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkMixedTelemetry' -benchtime 5x -count 3 .

# One way to build a device stack, one place its life is assembled, one
# declaration per device flag, and no dead packages. Fails if a non-test
# .go file outside internal/stack (and the packages that define them)
# calls ssd.New(, ssd.NewWithArray(, ftl.NewController(, recovery.Attach(
# or recovery.Mount(; if a non-test file tears the media — calls
# CutWordLine( or CutErase( — outside internal/nand and the recovery
# cut (internal/recovery/manager.go, which tears a copy), or hands a
# device's .Array() to NewWithArray( (a mount reads a cut's image, never
# the media a live device still runs on); if a device flag of internal/stack's table is
# declared anywhere else (binaries bind them with Spec.BindFlags;
# paperfig's -blocks is the width of the characterization sweep, not a
# device's, and bench/ is the frozen harness, whose -seed also feeds its
# load generator); if -stats-out or -stats-interval is declared anywhere
# but internal/obs/stats.go (cubesim and cubefleet bind them with
# obs.StatsConfig); or if a package under internal/ is imported by no
# other package (test imports count, a package's own tests do not).
DEVICE_FLAGS = ftl|channels|dies|blocks|seed|pe|retention|retry-mode|refresh|wearlevel|pfail|efail|rfault|badblocks|recovery|ckpt-interval
STATS_FLAGS = stats-out|stats-interval
one-stack:
	@bad=$$(grep -rn --include='*.go' -e 'ssd\.New(' -e 'ssd\.NewWithArray(' -e 'ftl\.NewController(' \
			-e 'recovery\.Attach(' -e 'recovery\.Mount(' . \
		| grep -v -e '_test\.go:' -e '^\./internal/stack/' -e '^\./internal/ssd/' -e '^\./internal/ftl/' -e '^\./internal/recovery/'); \
	if [ -n "$$bad" ]; then \
		echo "one-stack: only internal/stack builds, mounts and attaches a device stack:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.go' -e 'CutWordLine(' -e 'CutErase(' . \
		| grep -v -e '_test\.go:' -e '^\./internal/nand/' -e '^\./internal/recovery/manager\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "one-stack: only the recovery cut tears the media, on its copy (recovery.Manager.Cut):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' 'NewWithArray\(.*\.Array\(\)' . | grep -v -e '_test\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "one-stack: a mount reads a cut's image (recovery.Image.Array), not a live device's array:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' '(flag|fs)\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?"($(DEVICE_FLAGS))"' . \
		| grep -v -e '_test\.go:' -e '^\./internal/stack/' -e '^\./bench/' -e '^\./cmd/paperfig/main\.go:.*"blocks", 8, "blocks swept by'); \
	if [ -n "$$bad" ]; then \
		echo "one-stack: device flags are declared in internal/stack/flags.go only (bind them with Spec.BindFlags):"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' '(flag|fs)\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, *)?"($(STATS_FLAGS))"' . \
		| grep -v -e '_test\.go:' -e '^\./internal/obs/stats\.go:' -e '^\./bench/'); \
	if [ -n "$$bad" ]; then \
		echo "one-stack: -stats-out and -stats-interval are declared in internal/obs/stats.go only (bind them with obs.StatsConfig):"; echo "$$bad"; exit 1; \
	fi
	@$(GO) list -test -deps -f '{{.ImportPath}}{{range .Imports}}|{{.}}{{end}}' ./... | awk -F'|' ' \
		{ p = $$1; sub(/ \[.*/, "", p); sub(/(_test|\.test)$$/, "", p); \
		  if (p ~ /\/internal\//) pkgs[p] = 1; \
		  for (i = 2; i <= NF; i++) { d = $$i; sub(/ \[.*/, "", d); if (d != p) used[d] = 1 } } \
		END { for (p in pkgs) if (!(p in used)) { print "one-stack: " p " is imported by no other package"; bad = 1 } \
		      exit bad }'
	@echo "one-stack: PASS"

# One relocator, one block-role table, files split by concern: fails if a
# non-test .go file names a deleted window recorder (GCWindows,
# ScrubWindows, CkptWindows, relocWindow: the power-cut tests find a
# cycle or a checkpoint write by stepping a probe run), if a
# non-test file in internal/ftl other than relocator.go opens a
# relocation cycle (assigns a cycle's active flag) or calls the batch
# loop's entry (relocate, readNext) — every cause goes through
# startReloc; if map[int]bool is back in the package's non-test files
# (block membership is the role table's); if one of them names dieStuck,
# checkDieDegraded or checkDegraded (whether a die can take a write is
# the one outlook) or calls armFlushTimer outside maybeFlush and
# earlyFlushFired (a flush that found no die waits on an event, it does
# not poll); or if one of them is longer than 600 lines.
FTL_SRC = $(filter-out %_test.go,$(wildcard internal/ftl/*.go))
one-relocator:
	@bad=$$(grep -nE '(cycle|cy)\.active *(,[^=]*)?= *[^=]|\.relocate\(|\.readNext\(' $(filter-out %/relocator.go,$(FTL_SRC)); \
		grep -n 'map\[int\]bool' $(FTL_SRC); \
		grep -rnE --include='*.go' --exclude='*_test.go' 'GCWindows|ScrubWindows|CkptWindows|relocWindow' .); \
	if [ -n "$$bad" ]; then \
		echo "one-relocator: cycles open and step in internal/ftl/relocator.go only, block sets are roles, nothing records their windows:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nwE 'dieStuck|checkDieDegraded|checkDegraded' $(FTL_SRC); \
		awk '/^func / { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn) } \
			/armFlushTimer\(/ && !/^func / && !/^[[:space:]]*\/\// && fn != "maybeFlush" && fn != "earlyFlushFired" \
			{ print FILENAME ":" FNR ": " $$0 }' $(FTL_SRC)); \
	if [ -n "$$bad" ]; then \
		echo "one-relocator: a die's outlook is the one answer to whether it takes a write, and only maybeFlush and earlyFlushFired arm the flush timer:"; echo "$$bad"; exit 1; \
	fi
	@long=$$(wc -l $(FTL_SRC) | awk '$$2 != "total" && $$1 > 600 { print $$2 ": " $$1 " lines" }'); \
	if [ -n "$$long" ]; then echo "one-relocator: over 600 lines, split by concern:"; echo "$$long"; exit 1; fi
	@echo "one-relocator: PASS"

# One index for per-page lookups: fails if a Go map keyed by a page or
# op number (map[int64], map[uint64], map[LPN], map[PPN]) is back in a
# non-test file of internal/cache, internal/ftl, internal/ssd or
# internal/recovery, or a map keyed by a block number (map[int]) in
# internal/recovery. The cache's residents and ghosts and the write
# buffer's entries live in a pool.Index; the device's in-flight media ops
# are linked through their records; the durability ledger is a dense
# table indexed by LPN; the mount rebuilds the controller's own L2P and
# stamp tables and keeps its block sets as per-block flags.
INDEX_SRC = $(filter-out %_test.go,$(wildcard internal/cache/*.go internal/ftl/*.go internal/ssd/*.go internal/recovery/*.go))
RECOVERY_SRC = $(filter-out %_test.go,$(wildcard internal/recovery/*.go))
one-index:
	@bad=$$(grep -nE 'map\[ *([a-z]+\.)?(int64|uint64|LPN|PPN) *\]' $(INDEX_SRC); grep -nE 'map\[ *int *\]' $(RECOVERY_SRC)); \
	if [ -n "$$bad" ]; then \
		echo "one-index: per-page tables are dense or a pool.Index, per-block sets flags, in-flight ops a list through their records:"; echo "$$bad"; exit 1; \
	fi
	@echo "one-index: PASS"

# One trace grammar, one replay path: a recorded trace is MSR-Cambridge
# CSV (workload.ParseTimedTrace), and every replay of one — a fleet shard's
# or a single device's (SSD.ReplayTrace) — is internal/fleet's
# open-loop replayer. Fails if a non-test .go file outside internal/sim
# and internal/fleet feeds the engine an arrival stream (.Feed(), or if
# one names the deleted text-trace path: ParseTrace, WriteTrace,
# ToTrace or RunTrace.
one-trace:
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' -F '.Feed(' . \
			| grep -v -e '^\./internal/sim/' -e '^\./internal/fleet/'; \
		grep -rnw --include='*.go' --exclude='*_test.go' -E 'ParseTrace|WriteTrace|ToTrace|RunTrace' .); \
	if [ -n "$$bad" ]; then \
		echo "one-trace: traces are MSR, replayed by internal/fleet's open-loop replayer only:"; echo "$$bad"; exit 1; \
	fi
	@echo "one-trace: PASS"

# One ledger: a number is declared once, beside the field it is counted
# in (a `metric:"name kind help"` tag, metrics.Walk), and every view
# walks the struct. Fails if an exposition name (a string literal
# starting "cube_", "ftl/", "nand/", "faults/" or "cube/") appears in
# more than one non-test .go file of the library (the root package and
# internal/) — a second file spelling a name is a copy of the
# declaration; the scrapers (bench/, the tests) look a name up
# in what was served and have to spell it — if one of the
# copying helpers is back: metrics.CounterSet, Stats.FaultCounters, a
# map[string]*int64 of metric names; or if a non-test file in
# internal/fleet builds a telemetry.PromFamily literal (a fleet serves
# no /metrics; its shards' numbers leave in the -stats-out series, and
# nothing is listed by hand).
one-ledger:
	@bad=$$(grep -rnoE --include='*.go' --exclude='*_test.go' \
			'"(cube_|ftl/|nand/|faults/|cube/)[A-Za-z0-9_/%]+' *.go internal \
		| awk -F: '{ if (!seen[$$3 SUBSEP $$1]++) { files[$$3]++; where[$$3] = where[$$3] " " $$1 ":" $$2 } } \
			END { for (n in files) if (files[n] > 1) print n "\" in" where[n] }'); \
	if [ -n "$$bad" ]; then \
		echo "one-ledger: an exposition name is spelled in one file, where its field is declared:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
			-e 'CounterSet' -e 'FaultCounters' -e 'map\[string\]\*int64' .); \
	if [ -n "$$bad" ]; then \
		echo "one-ledger: counters are read by walking their struct (metrics.Walk), not copied into a named set:"; echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' -F 'PromFamily{' internal/fleet); \
	if [ -n "$$bad" ]; then \
		echo "one-ledger: a fleet's numbers leave through its shards' registries, not families built by hand:"; echo "$$bad"; exit 1; \
	fi
	@echo "one-ledger: PASS"

# Fleet smoke, tier-1 sized (a few seconds): the checked-in MSR fixture
# replayed across 8 shards and 1024 tenants behind write-back caches.
# The report on stdout is byte-stable for a fixed seed, however the
# shard goroutines are scheduled: the target runs it on one processor
# and on all of them and fails unless the two reports are identical —
# the quickest fleet-determinism check outside the test suite. The
# fixture is two trace blocks, so the second run also parses it on
# several goroutines and merges the blocks.
FLEET_SMOKE = -trace internal/workload/testdata/msr_sample.csv \
	-shards 8 -tenants 1024 -blocks 8 -channels 1 -dies 2 \
	-cache-pages 1024 -compress 20
fleet-smoke:
	@set -e; \
	serial=$$(GOMAXPROCS=1 $(GO) run ./cmd/cubefleet $(FLEET_SMOKE)); \
	parallel=$$($(GO) run ./cmd/cubefleet $(FLEET_SMOKE)); \
	echo "$$parallel"; \
	[ "$$serial" = "$$parallel" ] || { echo "fleet-smoke: report differs between GOMAXPROCS=1 and default:"; echo "$$serial"; exit 1; }; \
	echo "fleet-smoke: PASS (two reports byte-identical)"

# Fleet demo at deployment-flavored scale: capacity-aware placement over
# process-varied shards (±25% capacity jitter), 2048 tenants, the trace
# repeated 4x, per-shard 2Q write-back caches.
fleet-demo:
	$(GO) run ./cmd/cubefleet -trace internal/workload/testdata/msr_sample.csv \
		-shards 8 -tenants 2048 -placement capacity -capacity-jitter 0.25 \
		-blocks 12 -channels 1 -dies 2 -repeat 4 \
		-cache-pages 2048 -compress 20

# Chaos trace demo: kill die 3 mid-run and capture the full observability
# bundle — Chrome trace (open in https://ui.perfetto.dev), stats JSONL,
# and the per-stage latency breakdown.
trace-demo:
	$(GO) run ./cmd/cubesim -workload Mixed -requests 8000 -qd 16 \
		-killdie 3 -trace-out trace.json -stats-out stats.jsonl -breakdown

# Observability smoke: boot a real cubeserved with the metrics plane
# on, scrape /metrics and /readyz over HTTP, and assert the required
# exposition families (per-tenant p99, SLO state, retry-table
# counters, per-die health, the write buffer's padding and early-flush
# counters) are served. Fails on any missing family.
METRICS_PORT ?= 9491
metrics-smoke:
	@set -e; \
	$(GO) build -o /tmp/cubeserved-smoke ./cmd/cubeserved; \
	/tmp/cubeserved-smoke -addr 127.0.0.1:7491 -metrics-addr 127.0.0.1:$(METRICS_PORT) \
		-blocks 16 -slo & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS -o /dev/null http://127.0.0.1:$(METRICS_PORT)/readyz 2>/dev/null && break; \
		sleep 0.1; \
	done; \
	out=$$(curl -fsS http://127.0.0.1:$(METRICS_PORT)/metrics); \
	for fam in 'cube_server_up 1' 'cube_server_window_all_in_total' \
		'cube_server_window_timeouts_total' 'cube_tenant_read_p99_ns{tenant="lat"}' \
		'cube_tenant_weight{tenant="lat"}' 'cube_slo_enabled 1' \
		'cube_cube_retry_hits' 'cube_cube_ort_hits' \
		'cube_ftl_die_0_degraded' 'cube_events_total' \
		'cube_ftl_padded_pages' 'cube_ftl_early_flushes' \
		'cube_ftl_waf_host_bytes' 'cube_ftl_waf_refresh_bytes' \
		'cube_erase_count{die="0",quantile="0.5"}'; do \
		echo "$$out" | grep -qF "$$fam" || { echo "metrics-smoke: missing $$fam"; exit 1; }; \
	done; \
	curl -fsS http://127.0.0.1:$(METRICS_PORT)/healthz >/dev/null; \
	echo "metrics-smoke: PASS (all required families served)"

# Lifetime smoke: fast-forward a refresh+WL device three simulated
# years and assert the lifetime contract — read p99 stays within 2x of
# the same device's fresh baseline and no read goes uncorrectable.
lifetime-smoke:
	$(GO) test -run TestLifetimeSmoke -v ./internal/experiment

# Full suite including the fault-injection chaos soak.
soak:
	$(GO) test -race ./...

# Regenerate every paper figure/extension table.
figures:
	$(GO) run ./cmd/paperfig all

# Multi-tenant QoS demo: RR vs WRR vs WRR + rate cap.
demo:
	$(GO) test -run ExampleSSD_RunTenants -v .

clean:
	$(GO) clean ./...
