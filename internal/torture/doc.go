// Package torture is the crash-consistency torture harness
// (CrashMonkey/ALICE-style, `make torture`): it enumerates every
// registered failpoint site (internal/failpoint), and for each one runs
// the full fleet → store-ingest → query cycle with that site armed —
// workers killed or their writes torn at exact durability steps, spawns
// refused, ingests failed, renders poisoned, workers stalled — recovers
// through the machinery under test (journal resume, relaunch backoff,
// store quarantine, request retry), and asserts the recovered outputs
// are byte-identical to a fault-free run of the same cycle.
//
// The repo's signature invariant — any interleaving of crashes and
// resumes yields the same bytes — stops being a property sampled by one
// kill and becomes an exhaustively checked one: a new
// durability-critical code path is expected to register a failpoint
// site, and the harness fails if a registered site has no torture
// schedule. DESIGN.md §13 documents the byte-identity argument
// per fault class.
//
// The package is test-only; the harness lives in torture_test.go.
package torture
