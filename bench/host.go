package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fingerprint says which build ran on which machine; every output file
// carries it so two files can be told apart before their numbers are
// compared.
type fingerprint struct {
	GitSHA     string `json:"git_sha"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newFingerprint() fingerprint {
	fp := fingerprint{
		GitSHA:     "unknown", // a checkout that is not a git work tree
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.GitSHA = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.GitSHA += "+dirty"
				}
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// hostStats are the calibration values that say whether a moved number
// is the box rather than the program.
type hostStats struct {
	SHA256MBps          float64 `json:"sha256_MBps"`
	PreadMps            float64 `json:"pread_Mps"` // the window's calibration speed
	SleepOvershootP50Us float64 `json:"sleep_overshoot_p50_us"`
	SleepOvershootP99Us float64 `json:"sleep_overshoot_p99_us"`
	StallEvents         int     `json:"stall_events"`
	StealPct            float64 `json:"steal_pct"` // share of the window's vCPU time the hypervisor withheld
}

func hostFrom(p phase, c *calibration) hostStats {
	var h hostStats
	h.PreadMps = c.preadMps()
	h.SleepOvershootP50Us, h.SleepOvershootP99Us, h.StallEvents = p.sleepStats()
	h.StealPct = 100 * div(p.stolen.Seconds(), p.elapsed.Seconds()*float64(runtime.NumCPU()))
	return h
}

// sha256MBps is a fixed user-mode kernel, run once per process and only
// reported: on this VM it holds within 5 % while everything else moves.
func sha256MBps() float64 {
	buf := make([]byte, 1<<20)
	return mbps(len(buf), perCallNs(50*time.Millisecond, func() { sha256.Sum256(buf) }))
}

// Host calibration. This VM is a few hyperthreads of a shared host, and
// what the neighbours do shows in two ways. The hypervisor takes a vCPU
// away for milliseconds at a time — the guest kernel's steal clock counts
// that — and whatever shares the core slows the vCPU down while it has
// it: the same binary does 1 500 or 2 300 loopback audits a second, in
// phases that last minutes, over a flicker that lasts milliseconds. A loop
// of 16-byte preads of a page-cached file — nothing of the repository in
// it — moves with both (1.6 to 2.7 million a second) and tracks the three
// CPU-bound workloads. The harness reads the steal clock around every
// stretch it times, takes such a reading between the stretches, and
// reports every time as it would have read on the reference host (README,
// "Host calibration"):
//
//	reference time = (wall time − stolen time) × (c × speed + 1 − c)
//
// where speed is the harmonic mean of the phase's readings over
// refPreadMps — one speed for the whole phase: a reading says nothing
// about the stretch beside it, the flicker is too fast, but some tens of
// them say which phase the host is in — and c is the share of the phase's
// unstolen time the process spent on a CPU (getrusage): time asleep or
// blocked is not scaled.
const (
	calPreads  = 2048 // per batch, about a millisecond
	calBatches = 7    // a reading is the median batch

	refPreadMps = 2.5 // this VM with the core to itself

	// The steal clock ticks every 10 ms; a stretch shorter than twenty
	// ticks is left as the wall clock read it.
	stealResolution = 200 * time.Millisecond
)

// hostProbe takes the readings.
type hostProbe struct{ f *os.File }

func newHostProbe(dir string) (*hostProbe, error) {
	path := filepath.Join(dir, "calibration.bin")
	if err := os.WriteFile(path, make([]byte, calPreads*16), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	return &hostProbe{f}, err
}

func (h *hostProbe) close() { h.f.Close() }

// read takes one reading, in million preads per second.
func (h *hostProbe) read() float64 {
	var rates [calBatches]float64
	var block [16]byte
	for i := range rates {
		start := time.Now()
		for n := int64(0); n < calPreads; n++ {
			h.f.ReadAt(block[:], n*int64(len(block))) // inside the file: cannot come up short
		}
		rates[i] = calPreads / 1e6 / time.Since(start).Seconds()
	}
	return median(rates[:])
}

// stretch is one timed stretch of work: how long it took and how much of
// that the hypervisor withheld.
type stretch struct{ wall, stolen time.Duration }

// ran is the stretch's wall time less the stolen time. The steal clock
// sums all vCPUs, so it can overstate what this stretch lost; at most
// half the stretch is believed stolen.
func (s stretch) ran() time.Duration {
	if s.wall < stealResolution {
		return s.wall
	}
	return max(s.wall-s.stolen, s.wall/2)
}

// calibration accumulates the timed stretches of one phase of a run and
// the readings taken between them.
type calibration struct {
	h         *hostProbe
	cpu       time.Duration // process CPU time inside the stretches
	stretches []stretch
	readings  []float64
}

func (h *hostProbe) calibration() *calibration {
	return &calibration{h: h, readings: []float64{h.read()}}
}

// run times body as one stretch and takes a reading after it.
func (c *calibration) run(body func()) {
	cpu0, stolen0, start := processCPU(), stolenCPU(), time.Now()
	body()
	c.stretches = append(c.stretches, stretch{time.Since(start), stolenCPU() - stolen0})
	c.cpu += processCPU() - cpu0
	c.readings = append(c.readings, c.h.read())
}

// wall is the time spent inside the stretches, uncalibrated.
func (c *calibration) wall() (d time.Duration) {
	for _, s := range c.stretches {
		d += s.wall
	}
	return d
}

// preadMps is the phase's speed: the harmonic mean of its readings,
// because it is time per pread that averages over time.
func (c *calibration) preadMps() float64 {
	var inv float64
	for _, r := range c.readings {
		inv += 1 / r
	}
	return float64(len(c.readings)) / inv
}

// factors returns what a time measured in this phase is multiplied by to
// give reference-host time: whole, per stretch in the order run, for the
// stretch's own wall time; and short, for a time so much shorter than a
// stretch (one audit's latency) that stolen time fell into few of them
// and left their median alone.
func (c *calibration) factors() (whole []float64, short float64) {
	var ran time.Duration
	for _, s := range c.stretches {
		ran += s.ran()
	}
	onCPU := math.Min(1, div(c.cpu.Seconds(), ran.Seconds())) // over 1: threads in system calls beside the one P
	short = onCPU*c.preadMps()/refPreadMps + 1 - onCPU
	for _, s := range c.stretches {
		whole = append(whole, short*div(s.ran().Seconds(), s.wall.Seconds()))
	}
	return whole, short
}
