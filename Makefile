# Convenience targets; CI runs the same commands.

.PHONY: test race leap-race alloc-gate fuzz fault-smoke bench-smoke flowtrace-smoke

test:
	go build ./... && go test ./...

race:
	go test -race -short ./...

# The leap package's full suite (fuzz seed corpora included) under
# -race, as CI runs it. LEAP_TEST_FAULTS=1 bounds the fault property
# sweep to one seed.
leap-race:
	LEAP_TEST_FAULTS=1 go test -race ./internal/leap/

# The zero-allocation steady-state pins: AllocsPerOp == 0 for a full
# churn wave through the leap engine with hooks detached (and bounded
# with the full obs stack attached), plus the per-event ReadMemStats
# bounds and the table-recycling invariants behind them.
alloc-gate:
	go test -v -run 'TestAllocsPerOpSteadyState|TestReleaseFinishedRecycles|TestSteadyStateAllocations|TestBurstSteadyStateAllocations' -count=1 ./internal/leap/

# Explore the component-local-vs-global and fault-injection fuzz targets
# beyond their committed seed corpora (CI runs 30s per target per
# push; run longer locally when touching the event loop or the fault
# path).
fuzz:
	go test -run '^$$' -fuzz FuzzComponentLocalMatchesGlobal -fuzztime 60s ./internal/leap/
	go test -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 60s ./internal/leap/

# Fault-injection smoke: the leap fault test suite (property, analytic,
# and lost-service identity tests) plus the end-to-end example —
# scripted switch/link faults, stranded-flow resume, byte-identical
# Global replay.
fault-smoke:
	go test -run 'TestFault|TestStranded|TestNested|TestSameInstant|TestAllocatorsZeroCapacity|TestAllocatorCapacityRecovery|TestGroupResplitOnDeadLink' \
		-count=1 ./internal/leap/ ./internal/fluid/
	go run ./examples/leapfail

# One full iteration of each leap benchmark, with their built-in
# accuracy/identity assertions.
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkLeap(FCT|Components)' -benchtime 1x .

# End-to-end flow-tracing smoke: a leapfct run writing a
# flow-lifecycle trace, analyzed by flowreport (CI's obs-smoke job
# runs the same pair plus live endpoint scrapes).
flowtrace-smoke:
	go run ./cmd/numfabric -experiment leapfct -flowtrace-out /tmp/flowtrace.jsonl
	go run ./cmd/flowreport /tmp/flowtrace.jsonl
