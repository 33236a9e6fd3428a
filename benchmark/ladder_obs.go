package main

import (
	"runtime"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// ladder_obs.go switches request observability on, the way lflserver does:
// server.NewObs with the default sampling, SetObs, SetTelemetry.

// withObs makes every server built from the rig from now on carry an Obs
// and a telemetry recorder, and returns the Obs so its histograms can be
// read after the rung.
func (r *serverRig) withObs() *server.Obs {
	obs := server.NewObs(server.ObsConfig{})
	rec := telemetry.NewRecorder(runtime.GOMAXPROCS(0))
	r.attach = append(r.attach, func(srv *server.Server) {
		srv.SetObs(obs)
		srv.SetTelemetry(rec)
	})
	return obs
}

// queueWaitP50Us is the median reader-to-executor hand-off wait the Obs saw.
func queueWaitP50Us(obs *server.Obs) float64 {
	v, ok := obs.QueueWait().Quantile(0.5)
	if !ok {
		return 0
	}
	return float64(v) / 1e3
}
