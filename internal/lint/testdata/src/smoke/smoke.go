// Package smoke is the multichecker fixture: one package tripping
// several analyzers at once, plus every way a blast:allow comment can
// be wrong. The golden test runs the full suite over it; nothing calls
// its functions, so deadapi flags each.
package smoke

import (
	"os"
	"time"
)

// mixed trips wallclock, maporder and syncerr in one function.
func mixed(m map[string]float64, f *os.File) float64 { // want `mixed is referenced by no non-test file`
	start := time.Now() // want `time.Now in a deterministic package`
	total := 0.0
	for _, v := range m {
		total += v // want `floating-point accumulation into total`
	}
	_ = start
	f.Close() // want `error from f.Close is discarded`
	return total
}

// missingJustification: an allow without a justification suppresses
// nothing — the diagnostic survives AND the allow itself is reported,
// so deleting a justification turns the build red.
func missingJustification(m map[string]float64) float64 { // want `missingJustification is referenced by no non-test file`
	total := 0.0
	for _, v := range m {
		//blast:allow maporder // want `requires a justification`
		total += v // want `floating-point accumulation into total`
	}
	return total
}

// unknownAnalyzer: a typo'd analyzer name never suppresses.
func unknownAnalyzer() time.Time { // want `unknownAnalyzer is referenced by no non-test file`
	//blast:allow wallclck -- typo'd name // want `unknown analyzer "wallclck"`
	return time.Now() // want `time.Now in a deterministic package`
}

// stale: a well-formed allow that suppresses nothing is itself an
// error, so exceptions cannot outlive the code they excused.
func stale() int { // want `stale is referenced by no non-test file`
	//blast:allow syncerr -- fixture: nothing here discards anything // want `suppresses nothing here`
	return 0
}
