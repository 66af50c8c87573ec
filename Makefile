# Build and verification targets. `make tier1` is the gate every
# change must pass; `make race` additionally runs the race detector
# over every package, and `make lint` runs dcslint — the repo's
# ledger-aware static-analysis suite (see docs/LINT.md).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet lint loc test race fmt-check doc-check tier1 ci trace-demo crash-matrix heap-gate disk-gate fuzz-smoke bench-build bench-test scenario-smoke scenario-full

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# dcslint: determinism (written or laundered through helpers), lock
# hygiene, atomic discipline, hot-path error checking, goroutine
# lifecycle, unbounded-growth, and JSON-creep analyzers (docs/LINT.md).
# Any finding, or any //dcslint:ignore without a reason, fails the gate:
# fix it, or suppress it in place with the reason it is allowed.
lint:
	$(GO) run ./cmd/dcslint ./...

test:
	$(GO) test ./...

# Non-test Go lines outside benchmark/ and testdata/, per top-level
# directory, and two totals: the product's, which is the number ROADMAP
# item 8 is measured in, and apart from it the seed-level packages one
# experiment each uses, frozen as the paper's catalogue.
CATALOGUE = shard channel payment sidechain swap mixer utxo iavl
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*' \
		-not -path './.git/*' -not -path './.bench_build/*' -print0 \
		| xargs -0 wc -l \
		| awk -v catalogue="$(CATALOGUE)" 'BEGIN { split(catalogue, c, " "); for (i in c) frozen[c[i]] = 1 } \
			$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[2] : "."; \
				if (p[2] == "internal" && p[3] in frozen) { cat += $$1; next } by[d] += $$1; sum += $$1 } \
			END { for (d in by) printf "%7d %s\n", by[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d product total\n%7d catalogue (internal/: %s)\n", sum, cat, catalogue }'

# Formatting gate: fails listing any file gofmt would rewrite.
# Analyzer golden files under testdata/ are exempt — they are inputs to
# the analysis tests, not buildable sources.
fmt-check:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' -print0 \
		| xargs -0 $(GOFMT) -l); \
	status=$$?; \
	if [ $$status -ne 0 ]; then echo "gofmt failed"; exit $$status; fi; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Documentation gate: every package (including cmd/ and examples/)
# must carry a `// Package <name>` or `// Command <name>` doc comment
# in at least one non-test file, and every intra-repo markdown link
# must resolve (cmd/doccheck). testdata trees are exempt: they are
# analyzer fixtures, not part of the build. The ### sections under
# "## The analyzers" in docs/LINT.md must name exactly the analyzers in
# dcslint's `all` list.
doc-check:
	@missing=0; \
	for dir in $$(find internal cmd examples -type d -not -path '*/testdata/*' -not -path '*/testdata'); do \
		files=$$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
		[ -n "$$files" ] || continue; \
		if ! grep -l -E '^// (Package|Command) ' $$files >/dev/null 2>&1; then \
			echo "missing package doc comment: $$dir"; missing=1; \
		fi; \
	done; \
	analyzers=$$(for pkg in $$(sed -n '/^var all = /,/^}/s/^\t\([a-z]*\)\.Analyzer,$$/\1/p' cmd/dcslint/main.go); do \
		sed -n 's/^\tName: *"\([a-z]*\)",$$/\1/p' internal/analysis/$$pkg/$$pkg.go; done); \
	sections=$$(sed -n '/^## The analyzers$$/,/^## /s/^### //p' docs/LINT.md); \
	for a in $$analyzers; do \
		echo "$$sections" | grep -qx "$$a" || { echo "analyzer without a ### section in docs/LINT.md: $$a"; missing=1; }; \
	done; \
	for s in $$sections; do \
		echo "$$analyzers" | grep -qx "$$s" || { echo "docs/LINT.md section names no analyzer of dcslint: $$s"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] || exit $$missing
	$(GO) run ./cmd/doccheck .

# Race-detector gate over the whole module: the transport/gossip layer,
# the full node, and everything they share must stay race-free, and new
# packages join the gate automatically.
race:
	$(GO) test -race -count=1 ./...

# Pipeline trace demo: a 4-node in-process simulation (~seconds) that
# asserts the JSONL trace parses and contains every pipeline stage.
trace-demo:
	$(GO) test ./internal/bench -run TestTraceDemo -v -count=1

# Crash-injection matrix under the race detector, by name and with -v,
# for a run by hand (`make race` runs the same tests in CI): every
# failure mode (cut/torn/garbled write) x every fsync policy must recover to a
# verified prefix of the pre-crash chain; the same modes at every append
# of a scripted run must never leave the block tree naming a block whose
# body cannot be read back (TestCrashMatrixBodies); a disk-state flush torn
# mid-batch and a kill between the flush and the checkpoint that names it
# must each recover to the exact head (TestCrashMatrixTornFlush,
# TestCrashMatrixFlushBeforeCheckpoint); a state/ directory that lacks the
# root a snapshot-less checkpoint names must recover through the older
# checkpoint or the whole journal, or, every journaled block refused under
# another genesis, refuse to start and name the root
# (TestCrashMatrixLostStateDir); a journal cut below both checkpoints by
# a byte flipped in a sealed segment must drop them at the next open, so
# the blocks connected after it, and their checkpoint, survive the restart
# after that (TestCrashMatrixCutBelowCheckpoint); a checkpoint whose
# head's header does not carry its root must seed nothing, on either
# backend (TestCheckpointOffItsHeadSeedsNothing, …Disk); a sweep with a
# retention window shorter than the checkpoint cadence must keep what the checkpoints name, contract
# storage and code included (TestCrashMatrixSweepKeepsCheckpointRoots); a
# checkpoint that carries a snapshot must open on the disk backend
# (TestCrashMatrixSnapshotCheckpointOnDisk); a CRC-valid journal record
# recovery cannot use must be cut at the next open, so the blocks
# journaled after it survive the restart after that
# (TestRecoverPastUnusableRecord); a block refused because the
# state store could not be read must connect once it can
# (TestStateReadErrorIsNotARejection); a state/ directory in the node
# store's previous format is refused untouched and, removed as the refusal
# says, rebuilt from the journal (TestCrashMatrixLostStateDir/v1-format);
# and the same failpoint armed on the node store — between two frames of a
# chunked batch, inside one (the second, whose windowed predecessor must
# read back whole), inside the only one — must publish nothing of the hit
# frame and leave every checkpointed root walkable (see
# docs/PERSISTENCE.md).
crash-matrix:
	$(GO) test -race -count=1 ./internal/node -run 'TestCrashMatrix|TestCheckpointOffItsHeadSeedsNothing|TestStateReadErrorIsNotARejection|TestCleanShutdownRecoversExactHead|TestRecoverThenContinue|TestRecoverReorgedChain|TestRecoverPastUnusableRecord' -v
	$(GO) test -race -count=1 ./internal/nodestore -run TestCrashMatrixNodeStore -v

# The heap gates, without -short: a running durable node's live heap does
# not follow its transactions per block, a recovered one's follows its
# chain length by a header a block, a retained post-state below the trie
# window costs under 72 B per account its block wrote, the gossip
# seen-cache costs what its comment says and stops at its cap, a PoW
# seal allocates as much at difficulty 4096 as at 64, and a transaction's
# id is a memo and its encoding, like a block's, one allocation.
heap-gate:
	$(GO) test -count=1 ./internal/node -run 'TestHeapIndependentOfTxsPerBlock|TestRecoveryHeapIndependentOfChainLength|TestRetainedStateHeapPerAccountWritten' -v
	$(GO) test -count=1 ./internal/p2p -run TestSeenCacheBytesPerEntry -v
	$(GO) test -count=1 ./internal/consensus/pow -run TestSolveAllocs -v
	$(GO) test -count=1 ./internal/types -run TestTxCodecAllocs -v

# The disk gates, without -short: a signed transfer encodes its key and
# signature in 33 + 64 bytes and carries no sender, a transfer costs the
# journal under 88 bytes in blocks of 80 and under 94 in blocks of 20,
# each block and the head switch to it one record, in windows of up to
# 128 records and 128 KiB (about 84.2 and 89.8; in windows of 16 records
# with a head record a block: about 87.9 and 111.0; in blocks of 80, the
# canonical encoding verbatim: about 168; each block compressed on its
# own, not against the blocks before it: about 126; the canonical
# encoding windowed, signatures and all: about 106; the encoding before
# compact keys and signatures: about 138), a journaled block's signatures are its record's raw tail and never enter
# the window, an account written costs the node store on disk, on the
# shape of the disk-state workload — a genesis of 2 256 accounts, then
# sixteen flushes of sixteen ~19-transfer blocks over 256 senders — under
# 49 bytes at the genesis and under 160 bytes in a later flush (every
# leaf a record of its own: about 94.8 and 206.5), with no leaf record
# staged, a flush of it under 37 300 bytes (every leaf a record: about
# 48 100; every branch written full too: about 68 300) with no delta
# chain deeper than three, and a record costs the node store's index at
# most 32 bytes of heap.
disk-gate:
	$(GO) test -count=1 ./internal/types -run TestEncodingCarriesEachFactOnce -v
	$(GO) test -count=1 ./internal/wal -run 'TestJournalBytesPerTransfer|TestSignaturesStayOutOfTheWindow' -v
	$(GO) test -count=1 ./internal/nodestore -run 'TestNodeStoreBytesPerAccount|TestNodeStoreBytesPerFlush|TestIndexBytesPerRecord' -v

# Native fuzzing smoke: FUZZTIME per target over every decoder that
# reads attacker- or crash-controlled bytes — the WAL frame, the codec
# its and node records are compressed by (behind an arbitrary window),
# the record window both stores keep (lz.Chain, against a model of its
# rule), the block codec and the storage form the journal keeps blocks
# in, the transaction codec and its signature checks, and the binary wire
# codecs (p2p frames, gossip envelopes, pbft pre-prepares and phase votes,
# raft protocol messages, ordering batches, poet certificates, state
# snapshots, the node store's batch frames and the trie node records in
# them; see docs/WIRE.md). The loop runs every `func Fuzz…` the module
# declares, each on its own. Minimizing a new interesting input is
# bounded to 1 s: at the engine's default of 60 s, one minimization
# stopped a target's exec count for the rest of its run.
FUZZTIME ?= 30s
fuzz-smoke:
	@set -e; for f in $$(grep -rlE '^func Fuzz' --include='*_test.go' --exclude-dir=testdata internal cmd examples | sort); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzz-smoke: ./$$(dirname "$$f") $$target"; \
			$(GO) test ./$$(dirname "$$f") -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s; \
		done; \
	done

# Compile-only check of the nested benchmark module (benchmark/, its
# own go.mod, not part of `go build ./...`): it calls internal packages
# directly, so an internal-API change that breaks it should fail CI
# rather than the next benchmark run.
bench-build:
	cd benchmark && $(GO) vet ./...

# The nested module's own tests, against the tree: its replay drives
# state, exec, wal, nodestore and node through their public functions, so
# a change of meaning there fails here, not in the next benchmark run.
bench-test:
	cd benchmark && $(GO) test ./...

# Adversarial scenario smoke: the 64-node preset for every consensus
# family under the race detector — churn, a healing partition, one
# Byzantine actor each, WAL crash-recovery for pow — every cell run
# twice and required bit-identical (docs/SCENARIOS.md), and the FRONTIER
# table's family and fingerprint columns required equal to the committed
# golden: a fingerprint moves only in a commit that re-records that file
# and touches nothing else.
FINGERPRINTS64 = internal/scenario/testdata/fingerprints64.golden
scenario-smoke:
	@out=$$($(GO) run -race ./cmd/dcsbench -scenario all -scenario-nodes 64); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	echo "$$out" | awk '$$2 ~ /^[0-9]+$$/ && NF >= 10 { print $$1, $$9 }' | diff $(FINGERPRINTS64) - \
		|| { echo "scenario-smoke: fingerprints differ from $(FINGERPRINTS64)"; exit 1; }

# Full-scale sweep behind the frontier table in EXPERIMENTS.md:
# 1,000-node pow and raft, 256-replica pbft (O(n²) messaging cap).
scenario-full:
	$(GO) run ./cmd/dcsbench -scenario pow,raft -scenario-nodes 1000
	$(GO) run ./cmd/dcsbench -scenario pbft -scenario-nodes 256

tier1: build vet lint fmt-check doc-check test bench-build bench-test

ci: tier1 race heap-gate disk-gate scenario-smoke
