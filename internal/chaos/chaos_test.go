package chaos

// runChaos is the harness spine: boot a world, draw actions from the
// seeded table until the budget runs out, quiesce and check conservation
// after every one, then close with the epilogue — a surface-agreement
// scrape, a clean drain, and a replay of the whole history against a
// fresh memory-only daemon at -workers 1.

import (
	"net/http"
	"testing"

	"repro/internal/clitest"
)

func runChaos(t *testing.T, seed uint64, actions int) {
	w := newWorld(t, seed, actions)
	defer w.teardown()

	for i := 1; i <= actions; i++ {
		w.actionN = i
		a := pickAction(w.rng)
		w.curName = a.name
		w.trace("action %d/%d: %s", i, actions, a.name)
		a.run(w)
		// The cheap oracle after every action: gauges at zero, admission
		// conservation, cache bound. Strict per-action deltas live in
		// the actions themselves.
		w.quiesce()
	}
	w.trace("action budget spent: %d grids in history, %d distinct points learned", len(w.history), len(w.expected))

	w.epilogue()
}

// epilogueReplayCap bounds the epilogue replay: a long run's history is
// replayed newest-first up to this many grids (the trace logs what was
// dropped) so the epilogue stays a bounded fraction of the run.
const epilogueReplayCap = 16

// epilogue ends the run: the full /metrics-vs-/stats agreement check on
// the long-lived daemon, a clean SIGTERM drain, then the worker-count
// oracle — a fresh memory-only daemon with a single worker re-simulates
// the history from scratch, batching it differently, and every line
// must land byte-identical to what the two-worker daemon streamed, end
// to end through the real binary.
func (w *world) epilogue() {
	w.curName = "epilogue"
	st := w.quiesce()
	w.metricsAgree(st)
	w.shutdown()

	replay := w.history
	if len(replay) > epilogueReplayCap {
		w.trace("epilogue: replaying newest %d of %d history grids", epilogueReplayCap, len(replay))
		replay = replay[len(replay)-epilogueReplayCap:]
	}
	if len(replay) == 0 {
		return
	}
	w.trace("epilogue: replay of %d grids against a fresh -workers 1 daemon", len(replay))
	d, err := clitest.StartDaemon(sweepdBin(), w.logPath, clitest.DefaultWait,
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-cache", "4096",
		"-queue", "512",
	)
	if err != nil {
		w.failf("epilogue: replay daemon failed to start: %v", err)
	}
	w.d = d
	w.admitted = 0
	w.cacheLimit = 4096
	if err := clitest.WaitHealthy(d.URL, clitest.DefaultWait); err != nil {
		w.failf("epilogue: replay daemon never became healthy: %v", err)
	}
	for _, g := range replay {
		// absorb runs every line through the byte-identity model built
		// from the two-worker daemon's streams: any divergence between
		// worker counts or batch compositions fails here.
		resp, err := w.postSweep(g.body())
		if err != nil {
			w.failf("epilogue: POST /sweep: %v", err)
		}
		sr := readSweep(resp, nil)
		if sr.status == http.StatusOK {
			w.admitted += int64(g.points())
		}
		if got := w.absorb(sr, "epilogue replay of "+g.desc()); got != g.points() {
			w.failf("epilogue: replay streamed %d points, want %d", got, g.points())
		}
	}
	w.quiesce()
	w.shutdown()
}
