package promote

// The demotion watchdog's fixed thresholds, for tests that drive them from
// outside the package.
const (
	MinDecisions = minDecisions
	Consecutive  = consecutive
)

// MaxShadowSessions bounds the shadow's candidate session pool.
const MaxShadowSessions = maxShadowSessions
