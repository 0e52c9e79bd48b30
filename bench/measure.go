package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// Telemetry series the harness reads as exact work counts.
const (
	seriesFramesWritten = "geoproof_mux_frames_written_total"
	seriesFramesRead    = "geoproof_mux_frames_read_total"
	seriesStorePreads   = "geoproof_store_preads_total"
	seriesStorePreadB   = "geoproof_store_pread_bytes_total"
)

// phase is everything measured around one stretch of work: process and
// runtime deltas taken while no operation is in flight, plus what the
// background samplers saw while it ran.
type phase struct {
	elapsed    time.Duration
	cpu        time.Duration // process user+sys
	peakHeap   uint64        // highest sampled live-object heap bytes
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	counters   map[string]float64 // telemetry counter deltas by series name
	stolen     time.Duration      // vCPU time the hypervisor withheld, all vCPUs
	overshoot  []time.Duration    // sleep-probe overshoots
}

const (
	heapSampleEvery = 5 * time.Millisecond
	sleepProbe      = 5 * time.Millisecond
	stallThreshold  = 10 * time.Millisecond
)

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenCPU is the guest kernel's steal clock summed over vCPUs: time a
// vCPU had work to run and the hypervisor ran something else. It reads 0
// where /proc/stat is missing.
func stolenCPU() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ is 100 on every Linux port
}

func telemetryCounters() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range telemetry.Default.Snapshot() {
		if s.Kind == "counter" {
			out[s.Name] += s.Value
		}
	}
	return out
}

// measure runs body — which must return with no operation in flight —
// between two quiescent snapshots, with two background samplers: live
// heap every 5 ms (runtime/metrics, no stop-the-world) and a 5 ms sleep
// loop whose overshoot says when the host, not the program, stalled.
func measure(body func()) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := telemetryCounters()

	var p phase
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > p.peakHeap {
				p.peakHeap = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t := time.Now()
			time.Sleep(sleepProbe)
			p.overshoot = append(p.overshoot, time.Since(t)-sleepProbe)
		}
	}()

	cpu0, stolen0 := processCPU(), stolenCPU()
	start := time.Now()
	body()
	p.elapsed = time.Since(start)
	p.cpu, p.stolen = processCPU()-cpu0, stolenCPU()-stolen0
	close(stop)
	wg.Wait()

	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.counters = telemetryCounters()
	for name, v := range c0 {
		p.counters[name] -= v
	}
	return p
}

// sleepStats summarises the sleep probe: median and p99 overshoot in µs
// and how many sleeps overshot by more than stallThreshold.
func (p phase) sleepStats() (p50us, p99us float64, stalls int) {
	us := make([]float64, len(p.overshoot))
	for i, d := range p.overshoot {
		us[i] = float64(d) / 1e3
		if d > stallThreshold {
			stalls++
		}
	}
	return percentile(us, 0.5), percentile(us, 0.99), stalls
}
