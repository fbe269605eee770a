package main

// In-process layer probes. After a traced phase the benchmark calls each
// layer's public functions on the workload's own inputs — its traces, its
// points, its request bodies, its store — inside spans, so each layer's
// cost is measured where its work happens. They run after the phase, so
// they never compete with the daemon for the cores.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fo4"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// probeInput is what the probes replay: the workload's traces (profiles
// at n and seed), its request bodies, the response lines it was served
// and — for the durable workload — a copy of its store.
type probeInput struct {
	profiles    []trace.Profile // nil = the whole suite
	n           int
	seed        uint64
	bodies      [][]byte
	served      map[string][]byte // every served key's line; nil for the CLI
	storeDir    string            // "" = probe a fresh store filled with the served lines
	codeVersion string
}

// runProbes returns the probe metrics, recording one span per measured
// call under a "probe" root in sl. work is a scratch directory.
func runProbes(in probeInput, sl *spanLog, work string) (map[string]float64, error) {
	if in.profiles == nil {
		in.profiles = trace.SPEC2000()
	}
	t0 := time.Now()
	root := sl.add("probe", -1, "", t0, t0) // end patched below
	defer func() { sl.spans[root].EndUS = sl.at(time.Now()) }()

	v := map[string]float64{}
	var gen, cons, prewarm, copyState, batchNS, inorderNS, withNS, simBatch []float64
	alpha, inorder := config.Alpha21264(), config.InOrder7Stage()
	grid := core.PaperGrid()
	lanes := func(m config.Machine) []pipeline.Params {
		ps := make([]pipeline.Params, len(grid))
		for i, u := range grid {
			clk := fo4.Clock{Useful: u, Overhead: fo4.PaperOverhead}
			ps[i] = pipeline.Params{Machine: m, Timing: m.Resolve(clk), Warmup: in.n / 5}
		}
		return ps
	}
	oooLanes, inorderLanes := lanes(alpha), lanes(inorder)
	bs, cbs, sc := pipeline.NewBatchScratch(), pipeline.NewBatchScratch(), pipeline.NewScratch()
	perInst := func(d time.Duration, lanes int) float64 { return float64(d) / float64(lanes*in.n) }

	for _, p := range in.profiles {
		// trace: generation, then the first consumer-index build of the
		// fresh trace (the index is cached by instruction stream).
		var tr *trace.Trace
		gen = append(gen, ms(sl.timed("trace.generate", root, func() { tr = p.Generate(in.n, in.seed) })))
		cons = append(cons, ms(sl.timed("trace.consumer_index", root, func() { tr.ConsumerIndexOf() })))

		// mem: the batch template's prewarm walk and a lane's copy of it,
		// at the Alpha 21264 geometry, into hierarchies already used once
		// as a batch's reused scratch is.
		h, lane := newHierarchy(alpha), newHierarchy(alpha)
		h.Coverage = tr.PrefetchCoverage
		h.Prewarm(tr.HotBytes, tr.WarmBytes)
		lane.CopyStateFrom(h)
		h.Reset()
		prewarm = append(prewarm, ms(sl.timed("mem.prewarm", root, func() { h.Prewarm(tr.HotBytes, tr.WarmBytes) })))
		copyState = append(copyState, us(sl.timed("mem.copy_state", root, func() { lane.CopyStateFrom(h) })))

		// pipeline: the 15 Figure 5 lanes, the 15 in-order lanes and one
		// lane alone; each timed on its second call, after the first has
		// built the trace's shared decode.
		pipeline.RunBatch(oooLanes, tr, bs.Lanes(len(oooLanes)))
		batchNS = append(batchNS, perInst(sl.timed("pipeline.run_batch", root, func() {
			pipeline.RunBatch(oooLanes, tr, bs.Lanes(len(oooLanes)))
		}), len(oooLanes)))
		pipeline.RunBatch(inorderLanes, tr, bs.Lanes(len(inorderLanes)))
		inorderNS = append(inorderNS, perInst(sl.timed("pipeline.run_batch_inorder", root, func() {
			pipeline.RunBatch(inorderLanes, tr, bs.Lanes(len(inorderLanes)))
		}), len(inorderLanes)))
		mid := oooLanes[len(oooLanes)/2]
		pipeline.RunWith(mid, tr, sc)
		withNS = append(withNS, perInst(sl.timed("pipeline.run_with", root, func() { pipeline.RunWith(mid, tr, sc) }), 1))

		// core: one cold request's 15 points, timed once its trace is in
		// the process-wide cache.
		opts := make([]core.PointOptions, len(grid))
		for i, u := range grid {
			opts[i] = core.PointOptions{Benchmark: p.Name, Useful: u, Instructions: in.n, Seed: in.seed}
		}
		if _, err := core.SimulateBatch(opts, cbs, nil); err != nil {
			return nil, err
		}
		var err error
		simBatch = append(simBatch, ms(sl.timed("core.simulate_batch", root, func() { _, err = core.SimulateBatch(opts, cbs, nil) })))
		if err != nil {
			return nil, err
		}
	}
	v["trace.generate_ms"] = median(gen)
	v["trace.consumer_index_ms"] = median(cons)
	v["mem.prewarm_ms"] = median(prewarm)
	v["mem.copy_state_us"] = median(copyState)
	v["pipeline.run_batch_ns_per_inst"] = median(batchNS)
	v["pipeline.inorder_ns_per_inst"] = median(inorderNS)
	v["pipeline.run_with_ns_per_inst"] = median(withNS)
	v["core.simulate_batch_ms"] = median(simBatch)

	// serve: marshal the lines the daemon served, decoded into the type it
	// marshals them from. Each must re-marshal to exactly the bytes served,
	// so a change to the wire format cannot leave the probe measuring
	// objects sweepd no longer sends.
	keys := make([]string, 0, len(in.served))
	for k := range in.served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	prs := make([]serve.PointResult, len(keys))
	for i, k := range keys {
		if err := json.Unmarshal(in.served[k], &prs[i]); err != nil {
			return nil, fmt.Errorf("served line for %s: %w", k, err)
		}
	}
	lines := make([][]byte, len(prs))
	d := sl.timed("serve.marshal", root, func() {
		for i := range prs {
			b, _ := json.Marshal(prs[i])
			lines[i] = append(b, '\n')
		}
	})
	for i, k := range keys {
		if !bytes.Equal(lines[i], in.served[k]) {
			return nil, fmt.Errorf("served line for %s does not re-marshal to the bytes served:\n%s%s", k, in.served[k], lines[i])
		}
	}
	v["serve.marshal_us_per_point"] = ratio(us(d), float64(len(prs)))

	// serve: the handler's request decode and expansion, on the
	// workload's own bodies; then core's key hashing alone on their points.
	var perReq []float64
	var pts []core.PointOptions
	for _, b := range in.bodies {
		var ps []core.PointOptions
		var err error
		perReq = append(perReq, us(sl.timed("serve.request_points", root, func() {
			var req serve.SweepRequest
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req); err == nil {
				ps, _, err = req.Points(in.codeVersion, daemonLimits)
			}
		})))
		if err != nil {
			return nil, fmt.Errorf("probe body %s: %w", b, err)
		}
		pts = append(pts, ps...)
	}
	v["serve.request_points_us"] = median(perReq)
	d = sl.timed("core.key", root, func() {
		for _, o := range pts {
			o.Key(in.codeVersion)
		}
	})
	v["core.key_us_per_point"] = us(d) / float64(max(len(pts), 1))

	if err := storeProbes(in, keys, lines, sl, root, work, v); err != nil {
		return nil, err
	}
	return v, nil
}

// storeProbes measures the result-store layer on the served lines:
// memory-layer gets, append (Put), replay on Open, and gets that fall
// through to a segment. With no lines (the CLI) every store probe reads 0.
func storeProbes(in probeInput, keys []string, lines [][]byte, sl *spanLog, root int, work string, v map[string]float64) error {
	if len(keys) == 0 {
		for _, name := range []string{"store.memory_get_us", "store.put_us", "store.open_replay_ms",
			"store.replay_us_per_record", "store.get_disk_us"} {
			v[name] = 0
		}
		return nil
	}
	m := store.NewMemory(len(keys), nil)
	for i, k := range keys {
		m.Put(k, lines[i])
	}
	d := sl.timed("store.memory_get", root, func() {
		for _, k := range keys {
			m.Get(k)
		}
	})
	v["store.memory_get_us"] = us(d) / float64(len(keys))

	dir := in.storeDir
	if dir == "" {
		dir = filepath.Join(work, "probe-store")
	}
	opts := store.Options{Dir: dir, CodeVersion: in.codeVersion, SyncInterval: -1}
	s, err := store.Open(opts)
	if err != nil {
		return err
	}
	d = sl.timed("store.put", root, func() {
		for i, k := range keys {
			s.Put(k, lines[i])
		}
	})
	v["store.put_us"] = us(d) / float64(len(keys))
	if err := s.Close(); err != nil {
		return err
	}

	d = sl.timed("store.open_replay", root, func() { s, err = store.Open(opts) })
	if err != nil {
		return err
	}
	v["store.open_replay_ms"] = ms(d)
	v["store.replay_us_per_record"] = us(d) / float64(max(s.Stats().Replayed, 1))
	if err := s.Close(); err != nil {
		return err
	}

	// A one-entry warm layer makes every Get of a different key re-read
	// its segment record.
	opts.CacheLimit = 1
	if s, err = store.Open(opts); err != nil {
		return err
	}
	before := s.Stats().DiskHits
	d = sl.timed("store.get_disk", root, func() {
		for _, k := range keys {
			s.Get(k)
		}
	})
	if hits := s.Stats().DiskHits - before; hits > 0 {
		v["store.get_disk_us"] = us(d) / float64(hits)
	}
	return s.Close()
}

// newHierarchy builds the data-cache stack of machine m, as the
// simulator does.
func newHierarchy(m config.Machine) *mem.Hierarchy {
	st := m.Structures
	return mem.NewHierarchy(
		mem.NewCache(st.DL1.CapacityBytes, st.DL1.BlockBytes, st.DL1.Assoc),
		mem.NewCache(st.L2.CapacityBytes, st.L2.BlockBytes, st.L2.Assoc),
	)
}
