// Package promote is the model-lifecycle subsystem of the serving plane:
// it makes swapping a retrained policy into a live fleet safe.
//
// Four pieces compose the lifecycle:
//
//   - Registry: a versioned model store (safeio-checksummed checkpoints +
//     provenance metadata) whose incumbent/candidate/rejected state
//     machine is persisted in a CRC'd append-only journal. A restarted
//     daemon always reloads the last *promoted* model — never a
//     half-written candidate — because the journal is fsynced per record
//     and torn tails are truncated on open.
//
//   - Shadow: a shadow evaluator that mirrors every live serve.Engine
//     decision to the candidate model in a second session pool. Candidate decisions are recorded (divergence
//     histograms, per-regime stats) but never applied.
//
//   - Gate: a dominance promotion gate that replays the adversarial and
//     Set I suites for incumbent and candidate and promotes only if the
//     candidate is no worse in every regime bucket and better in at
//     least one — learned policies that win on average can regress badly
//     in specific regimes, so promotion is dominance-gated per regime,
//     never mean-gated.
//
//   - Manager + Watchdog: glue binding the registry to a live
//     serve.Engine. Swap() hot-swaps with zero dropped decisions
//     (serve.Engine.Swap re-primes per-flow recurrent state from each
//     flow's recent trace window); the demotion watchdog then compares
//     post-swap guard trip rates and fallback ratios against the
//     pre-swap baseline and reverts to the previous incumbent in one
//     registry transaction if the new model degrades the fleet.
package promote
