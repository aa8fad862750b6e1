package netrun

import "fompi/internal/telemetry"

// LastStats returns the aggregated telemetry snapshot of the last world
// this process coordinated, if any world shipped stats frames.
func LastStats() (telemetry.Snapshot, bool) {
	lastStatsMu.Lock()
	defer lastStatsMu.Unlock()
	if lastStats == nil {
		return telemetry.Snapshot{}, false
	}
	return *lastStats, true
}
