package main

import (
	"testing"

	"psclock/internal/detector"
	"psclock/internal/fleet"
	"psclock/internal/simtime"
)

// TestReportDetTimeout checks that det_timeout_us reports the plane's
// effective heartbeat timeout: with -dettimeout left at 0 the plane
// derives τ from SafeTimeoutClock plus slack, and the report must carry
// that value, not the raw zero flag.
func TestReportDetTimeout(t *testing.T) {
	cfg := fleet.PlaneConfig{
		N:         3,
		Eps:       500 * simtime.Microsecond,
		D2:        5 * simtime.Millisecond,
		Ell:       5 * simtime.Millisecond,
		DetPeriod: 150 * simtime.Millisecond,
	}
	plane, err := fleet.NewPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := plane.Detector()
	want := detector.SafeTimeoutClock(cfg.DetPeriod, simtime.NewInterval(cfg.D1, cfg.D2), cfg.Eps) + cfg.Ell + 55*simtime.Millisecond
	if det.Timeout != want {
		t.Fatalf("plane timeout %v, want the default %v", det.Timeout, want)
	}
	rep := buildReport(reportInputs{nodes: cfg.N, eps: cfg.Eps, d2: cfg.D2, det: det})
	wantUS := float64(want) / float64(simtime.Microsecond)
	if rep.DetTimeoutUS == 0 || rep.DetTimeoutUS != wantUS {
		t.Fatalf("det_timeout_us = %v, want %v", rep.DetTimeoutUS, wantUS)
	}
	if rep.DetPeriodUS != 150_000 {
		t.Fatalf("det_period_us = %v, want 150000", rep.DetPeriodUS)
	}
}
