// Package obs is the clock-agnostic telemetry plane shared by every
// driver of the serving stack: a concurrent-safe metrics registry
// (counters, gauges, fixed-bucket histograms, scrape-time functions) with
// Prometheus text-format exposition, a per-request span tracer backed by a
// bounded ring buffer with Chrome trace_event JSON export, sliding-window
// quantile estimators, an SLO tracker with attainment and goodput,
// burn-rate alerts, a calibration cost-sample recorder, and a flight
// recorder.
//
// Everything is timestamped through the package's one-method Clock
// interface (Now() float64, seconds): the live serving plane binds a
// WallClock, while the discrete-event simulator and the differential
// replay driver bind their virtual clock — so the same instruments carry
// virtual timestamps under simulation and wall timestamps in production,
// and a replayed trace produces the same exposition shapes as a live run.
// Plane bundles all of it behind one construction point; see
// docs/OBSERVABILITY.md for the full metric, span, and artifact
// reference.
//
// The registry replaces ad-hoc metric string formatting: instruments are
// registered once, updated lock-free (atomics) on the hot path, and
// rendered on demand by WritePrometheus. The tracer records one Span per
// pipeline stage a request passes through, so a single request's life
// across the disaggregated pipeline (Fig 10) can be opened in
// chrome://tracing or Perfetto.
package obs
