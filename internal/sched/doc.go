// Package sched is the concurrent design-evaluation engine behind the
// design-space exploration (package dse) and the quality evaluator
// (package core).
//
// Evaluating one candidate design means simulating the full Pan-Tompkins
// pipeline over every evaluation record — by far the dominant cost of
// XBioSiP's methodology (the paper budgets 300 s per evaluation, §6.1).
// The work is parallel along two axes, and Evaluator schedules both as a
// two-level (design x record) hierarchy over one set of worker slots, a
// counting semaphore that caps the engine's goroutines:
//
//   - Level 1 — designs. EvaluateBatch fans candidate configurations out,
//     one goroutine per cache miss as slots free up (Evaluate computes
//     single misses inline in the caller). This is the axis the
//     explorer's speculative candidate chunks ride on.
//
//   - Level 2 — records. An engine built with NewSharded splits one
//     cache-missing design into one sub-job per record over the same
//     slots and folds the per-record partials, always in record order,
//     into the cached value. A sub-job runs on a new goroutine when a
//     slot is free, otherwise the submitting goroutine runs it inline —
//     so a design job that splits while holding a slot can never
//     deadlock, a single expensive design saturates the machine (the
//     Fig 9 tool-flow evaluates every candidate over a full record set),
//     and design- and record-level work interleave freely.
//
// Every goroutine the engine starts exits before the call that started
// it returns. An engine therefore has no shutdown: dropping it releases
// everything.
//
// Results are memoized per canonical configuration: Canonical clears the
// elementary adder/multiplier kinds of stages with zero approximated LSBs
// (the arithmetic is exact at k=0 whatever the kinds), so every spelling
// of "accurate stage" shares one cache entry, and any design revisited —
// by Algorithm 1's phases, the exhaustive and heuristic baselines, or
// repeated experiments over one record set — is simulated exactly once.
//
// Determinism holds at both levels regardless of worker count: each
// design's value is computed by a single in-flight call (concurrent
// requests wait on it), batches preserve input order with the
// lowest-index error winning, and record reductions always see the full
// record-ordered partial slice, with the lowest-index record error
// winning.
//
// Choosing parallelism: evaluations are CPU-bound bit-true simulation, so
// the default of GOMAXPROCS workers saturates the machine and more does
// not help; workers=1 reproduces the strictly sequential seed behaviour.
// Evaluation functions must be deterministic and safe for concurrent use,
// and must not block waiting on the same engine's slots (record sub-jobs
// use non-blocking dispatch for exactly that reason).
package sched
