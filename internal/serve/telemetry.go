package serve

// Metric families recorded by the serving layer, all under serve.* in
// the shared telemetry registry (exported at /metrics by llva-serve).
const (
	MetricRequests    = "serve.requests"     // every run that reached admission
	MetricAccepted    = "serve.accepted"     // admitted into the queue
	MetricStarted     = "serve.started"      // picked up by a worker (execution began)
	MetricCompleted   = "serve.completed"    // finished successfully
	MetricShed        = "serve.shed"         // refused: worker pool saturated
	MetricRateLimited = "serve.rate_limited" // refused: tenant over request rate
	MetricGasDenied   = "serve.gas_denied"   // refused: tenant aggregate gas budget spent
	MetricOutOfGas    = "serve.out_of_gas"   // runs stopped by their per-run gas budget
	MetricErrors      = "serve.errors"       // runs that failed (trap, bad module, internal)
	MetricCanceled    = "serve.canceled"     // runs canceled by the client or drain
	MetricActive      = "serve.active"       // gauge: runs executing right now
	MetricQueueDepth  = "serve.queue_depth"  // gauge: admitted, not yet started

	// The former serve.latency_ns histogram is split so scheduling wins
	// are distinguishable from execution wins: queue_ns is admission ->
	// worker pickup, exec_ns is pickup -> completion (session acquisition
	// or reset included — that is the cost pooling amortizes).
	MetricQueueNS = "serve.queue_ns" // histogram: admission -> worker pickup
	MetricExecNS  = "serve.exec_ns"  // histogram: worker pickup -> completion

	// Session-pool outcomes: reuse is a pooled session reset and rerun,
	// cold a full NewSession (first touch, pool empty, or unpoolable).
	MetricSessionReuse = "serve.session_reuse" // runs served by a pooled session
	MetricSessionCold  = "serve.session_cold"  // runs that built a session from scratch
)
