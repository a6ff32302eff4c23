// Package fleet promotes the single-cell slot-traffic scheduler
// (internal/sched) to an N-cell basestation deployment: every cell
// owns its cluster geometry, stage layout, timing mode and bounded
// G/D/c/K queue, and one shared arrival process is routed across the
// cells by a pluggable load-balancing policy (round-robin,
// least-queue, SINR-aware).
//
// A fleet runs sched's serving core (sched.Measure, then sched.Replay)
// and adds only what is specific to fleets: serving-class dedup, the
// routing policies and handover counting. Determinism is the package
// contract, inherited from that two-phase core:
//
//   - Phase 1 measures every job under every distinct cell serving
//     class (cluster fingerprint × layout × timing mode) across the
//     sharded machine pool — in parallel, any worker count, through
//     the service-time cache and the analytic model exactly like a
//     standalone scheduler. A homogeneous fleet collapses to one
//     class, so serving N identical cells costs one measurement pass.
//   - Phase 2 routes and admits the whole trace in a single serial
//     virtual-time replay: at each arrival every cell's completions
//     are drained, the policy picks a cell from the deterministic
//     replay state, and the job enters that cell's queue. Routing
//     never reads host state, so the JSONL stream is byte-identical
//     across measurement worker counts, cache hits, and runs.
//
// Mobile UEs migrate between cells deterministically: a UE's serving
// cell under the SINR-aware policy follows CellGainDB, a pure function
// of (UE fading seed, cell index, channel time), and the UE's channel
// time rides in the job itself (stamped by the sched generators), so
// its fading process continues coherently across the handover. A
// single-cell fleet is byte-identical to the plain scheduler on the
// same trace — the degenerate wire format is exactly sched's — which
// the benchgate fleet gate enforces.
package fleet
