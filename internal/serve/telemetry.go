package serve

// Metric families recorded by the serving layer, all under serve.* in
// the shared telemetry registry (exported at /metrics by llva-serve).
const (
	MetricRequests    = "serve.requests"     // every run that reached admission
	MetricAccepted    = "serve.accepted"     // admitted to wait for a slot
	MetricStarted     = "serve.started"      // took a slot (execution began)
	MetricCompleted   = "serve.completed"    // finished successfully
	MetricShed        = "serve.shed"         // refused: Workers+Queue runs admitted and unfinished
	MetricRateLimited = "serve.rate_limited" // refused: tenant over request rate
	MetricGasDenied   = "serve.gas_denied"   // refused: tenant aggregate gas budget spent
	MetricOutOfGas    = "serve.out_of_gas"   // runs stopped by their gas budget (requested, server default or machine default)
	MetricErrors      = "serve.errors"       // runs that failed (trap, bad module, internal)
	MetricPanics      = "serve.panics"       // runs that panicked, answered 500 internal (also in serve.errors)
	MetricCanceled    = "serve.canceled"     // runs canceled by the client or drain
	MetricActive      = "serve.active"       // gauge: runs executing right now
	MetricQueueDepth  = "serve.queue_depth"  // gauge: admitted, waiting for a slot

	// The former serve.latency_ns histogram is split so scheduling wins
	// are distinguishable from execution wins: queue_ns is admission ->
	// slot, exec_ns is slot -> completion (session acquisition or reset
	// included — that is the cost pooling amortizes).
	MetricQueueNS = "serve.queue_ns" // histogram: admission -> slot
	MetricExecNS  = "serve.exec_ns"  // histogram: slot -> completion

	// Session-pool outcomes: reuse is a pooled session reset and rerun,
	// cold a full NewSession (first touch, pool empty, or unpoolable).
	MetricSessionReuse = "serve.session_reuse" // runs served by a pooled session
	MetricSessionCold  = "serve.session_cold"  // runs that built a session from scratch
)
