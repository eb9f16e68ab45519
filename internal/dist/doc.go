// Package dist is the distributed control plane: a coordinator that
// shards a collection campaign's (scheme, env) cells across remote
// sage-collect agents and drives data-parallel CRR training across
// sage-train workers, over one small RPC protocol: gob bodies in
// internal/wire's length-prefixed frames, on the accept loop and dial
// sage-serve shares.
//
// Collection. The coordinator owns the campaign: the cell set comes from
// a Campaign spec (schemes × Set I/Set II grid) that both sides build
// identically, so assignments travel as (scheme, env) names, never as
// serialized scenarios. Agents lease cells, renew the leases with
// heartbeats, run each cell with collector.CollectCell, and ship the
// resulting single-cell pool shard back checksummed; the coordinator
// persists every shard through internal/safeio and then records
// completion in its write-ahead log, the one ledger a restarted
// coordinator resumes from. A lease that is not renewed within its TTL
// returns the cell to the pending set and marks the holder evicted — a
// revived agent learns its session is dead on its next message and exits
// with a distinct status so a supervisor can relaunch it. Because each cell's trajectory is a pure function of
// (scheme, scenario, GR config), the merged pool is byte-identical to a
// single-process sage-collect run over the same campaign, no matter how
// cells were distributed, reassigned, or duplicated.
//
// Training. N trainer workers each hold a learner replica and the same
// deterministic sampler stream an in-process worker with that index
// would use (internal/rl's ShardWorker). Per step, every worker computes
// its gradient shard and pushes it to the coordinator; the coordinator
// all-reduces the shards in worker order onto the master learner
// (rl.ApplyShards), steps the optimizer, and broadcasts the new
// parameters. The decomposition is bitwise-identical to in-process
// Workers=N training, and the master checkpoint carries the remote
// sampler positions, so any worker or coordinator restart resumes with a
// bitwise-identical loss curve through the existing checkpoint
// machinery.
package dist
