package main

// The host-speed reference. The benchmark runs on a VM that shares its
// physical cores with other tenants, and two things slow it down for
// minutes at a time: the hypervisor runs other guests on the VM's CPUs
// (steal time, a fifth to a third of the time the VM wanted to run in
// the worst stretches measured), and the CPUs it does get run slower.
// Every timing moves with both, by up to 2× from one run to the next, so
// runs of the same code spread by more than any bound a regression could
// be judged by.
//
// So beside every workload run a prober measures both, every hostEvery:
// the steal share from the kernel's own accounting in /proc/stat, and the
// speed of the CPUs it got as the thread CPU time of a fixed job that no
// change to the repository can make faster or slower — sorting the same
// 16 Ki integers, branchy code like the simulator's. The two give the
// run's host factor: how much slower than nominal this run's host was.
// The end-to-end timings are reported divided by it (rates multiplied),
// that is, as they would read on the nominal host.

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	// hostEvery is how often the prober reads the host. One job takes
	// about 1.7 ms, under 2% of one core.
	hostEvery = 100 * time.Millisecond

	// hostNominal is the job's thread CPU time on the nominal host: its
	// median over a calm stretch on the 2-vCPU Xeon VM the bounds were
	// set on.
	hostNominal = 1700 * time.Microsecond

	// unstableDrift is the change in host factor between the first and
	// the last third of a run past which the run is marked unstable. At
	// 10% it flagged 20 of 120 runs, whose corrected timings then lay no
	// further from their workload's median than the other runs' did; the
	// first third holds the boots and the prefill, which move the job's
	// time a little by themselves.
	unstableDrift = 0.20
)

// hostSample is one reading of the prober.
type hostSample struct {
	job time.Duration // thread CPU time of one reference job

	// steal and wanted are /proc/stat's counts so far, in clock ticks
	// summed over the CPUs: time stolen by the hypervisor, and time the
	// VM wanted to run (everything but idle and iowait, steal included).
	steal, wanted int64
}

// hostProbe is the prober: the job's fixed input and a scratch copy.
type hostProbe struct{ src, work []int }

func newHostProbe() *hostProbe {
	h := &hostProbe{src: make([]int, 1<<14), work: make([]int, 1<<14)}
	r := newRNG(0x5eed)
	for i := range h.src {
		h.src[i] = int(r.next() >> 1)
	}
	return h
}

// watch reads the host every hostEvery, on one locked OS thread so the
// thread CPU time is the job's own, until done is set.
func (h *hostProbe) watch(done *atomic.Bool) ([]hostSample, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var out []hostSample
	for !done.Load() {
		t0 := threadCPU()
		copy(h.work, h.src)
		sort.Ints(h.work)
		s := hostSample{job: threadCPU() - t0}
		var err error
		if s.steal, s.wanted, err = cpuTicks(); err != nil {
			return nil, err
		}
		out = append(out, s)
		time.Sleep(hostEvery)
	}
	return out, nil
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuTicks reads the stolen and the wanted clock ticks, summed over the
// CPUs, from the first line of /proc/stat: "cpu user nice system idle
// iowait irq softirq steal ...".
func cpuTicks() (steal, wanted int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t [8]int64
	for i := range t {
		if t[i], err = strconv.ParseInt(string(f[i+1]), 10, 64); err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	user, nice, system, irq, softirq := t[0], t[1], t[2], t[5], t[6]
	steal = t[7]
	return steal, user + nice + system + irq + softirq + steal, nil
}

// hostFactor is how many times slower than nominal the host ran over
// samples: the job's median thread CPU time against hostNominal, divided
// by the share of the wanted time the VM was not robbed of. 0 with fewer
// than two samples.
func hostFactor(samples []hostSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	jobs := make([]float64, len(samples))
	for i, s := range samples {
		jobs[i] = float64(s.job)
	}
	first, last := samples[0], samples[len(samples)-1]
	stolen := ratio(float64(last.steal-first.steal), float64(last.wanted-first.wanted))
	return median(jobs) / float64(hostNominal) / (1 - stolen)
}

// hostReading summarizes one run's samples.
type hostReading struct {
	Workload string  `json:"workload"`
	Factor   float64 `json:"host_factor"`
	JobMS    float64 `json:"host_job_ms"`
	Stolen   float64 `json:"host_steal_share"`
	Samples  int     `json:"host_samples"`

	// The drift guard: the factor over the run's first and last thirds.
	Before   float64 `json:"drift_before"`
	After    float64 `json:"drift_after"`
	Change   float64 `json:"drift_change"`
	Unstable bool    `json:"unstable"`
}

func readHost(workload string, samples []hostSample) (hostReading, error) {
	n := len(samples)
	if n < 6 {
		return hostReading{}, fmt.Errorf("%s: the host prober took %d readings; a run needs at least 6", workload, n)
	}
	jobs := make([]float64, n)
	for i, s := range samples {
		jobs[i] = ms(s.job)
	}
	first, last := samples[0], samples[n-1]
	h := hostReading{
		Workload: workload,
		Factor:   hostFactor(samples),
		JobMS:    median(jobs),
		Stolen:   ratio(float64(last.steal-first.steal), float64(last.wanted-first.wanted)),
		Samples:  n,
		Before:   hostFactor(samples[:n/3]),
		After:    hostFactor(samples[n-n/3:]),
	}
	h.Change = ratio(h.After-h.Before, h.Before)
	h.Unstable = h.Change > unstableDrift || h.Change < -unstableDrift
	return h, nil
}
