package sentinel

// The sentinel's fixed periods and streak bounds, for tests that drive
// them from outside the package.
const (
	ParamSweepEvery = paramSweepEvery
	MaxSkipStreak   = maxSkipStreak
	CooldownSteps   = cooldownSteps
)
