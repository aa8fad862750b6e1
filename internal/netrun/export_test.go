package netrun

import (
	"os"

	"fompi/internal/telemetry"
)

// LastStats returns the aggregated telemetry snapshot the last world this
// process coordinated published to the FOMPI_STATS_OUT file, if it did.
func LastStats() (telemetry.Snapshot, bool) {
	b, err := os.ReadFile(os.Getenv(telemetry.EnvOut))
	if err != nil {
		return telemetry.Snapshot{}, false
	}
	snap, err := telemetry.ParseSnapshot(b)
	return snap, err == nil
}
