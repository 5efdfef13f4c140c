// Package walltime is the fixture for the walltime analyzer: wall-clock
// reads are flagged unless the site is on the built-in allowlist.
package walltime // want "walltime002"

import "time"

// Stamp reads the wall clock twice with no exemption.
func Stamp() time.Duration {
	start := time.Now()      // want "walltime001"
	return time.Since(start) // want "walltime001"
}

// AllowlistedMetric is exempted through the analyzer's built-in
// allowlist (the lint tests inject an entry for this fixture), the way
// Result.Wall stamping and the fleet TTL clock are on the real tree.
func AllowlistedMetric() time.Time {
	return time.Now()
}

// Deadline uses monotonic arithmetic on a caller-supplied anchor — no
// wall-clock read, not flagged.
func Deadline(anchor time.Time, d time.Duration) time.Time {
	return anchor.Add(d)
}
