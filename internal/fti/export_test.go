package fti

// Test-only exports for the external fti_test package, which cannot
// be package fti because it builds placements with core (an importer
// of fti).
var (
	ComputeMER       = computeMER
	AssertSameResult = assertSameResult
)
