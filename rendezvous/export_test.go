package rendezvous

import "repro/internal/batch"

// BatchJobsForTest exposes the internal job builder to the differential
// tests, which need raw batch.Job lists (with keys and wire forms) to
// drive the batch and dist engines directly and compare their Stats.
// It builds the jobs of a batch bound for a fleet, wire forms included.
func BatchJobsForTest(ins []Instance, alg Algorithm, s Settings) []batch.Job {
	return batchJobs(ins, alg, s, true)
}
