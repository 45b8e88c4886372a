package sim

// SetParallelism does nothing: the simulator always runs its cycle loop on
// the calling goroutine. Run independent configurations concurrently for
// multi-core throughput (campaign -jobs, or several sttsimd workers).
//
// Deprecated: there is no intra-run parallelism to configure.
func SetParallelism(n int) {}
