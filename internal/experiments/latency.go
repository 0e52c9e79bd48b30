package experiments

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// TableI reproduces the paper's Table I (latency for different HDD): the
// catalog parameters plus the look-up latency Δt_L computed from the
// §V-D model for a 512-byte sector read.
func TableI() Table {
	t := Table{
		ID:     "E1 / Table I",
		Title:  "Latency for different HDD (512-byte sector)",
		Header: []string{"Type", "RPM", "avg seek", "avg rotate", "avg IDR (paper)", "computed Δt_L"},
		Notes: []string{
			"Δt_L = Δt_seek + Δt_rotate + Δt_transfer (paper §V-D)",
			"paper worked values: WD2500JD 13.1055 ms, IBM 36Z15 5.406 ms",
		},
	}
	for _, m := range disk.TableI() {
		t.Rows = append(t.Rows, []string{
			m.Name,
			fmt.Sprintf("%d", m.RPM),
			ms(float64(m.AvgSeek) / 1e6),
			ms(float64(m.AvgRotate) / 1e6),
			m.TableIDR,
			ms(float64(m.LookupLatency(512)) / 1e6),
		})
	}
	return t
}

// lanLinkFor builds the standard experiment LAN model for a distance:
// fibre propagation, campus-scale switching and stack overhead.
func lanLinkFor(distKm float64) simnet.LANLink {
	return simnet.LANLink{
		DistanceKm: distKm,
		Switches:   4,
		PerSwitch:  30 * time.Microsecond,
		Base:       100 * time.Microsecond,
		Jitter:     50 * time.Microsecond,
	}
}

// TableII reproduces Table II (LAN latency within QUT): simulated ping
// RTTs for the ten machine pairs, all expected under the paper's 1 ms
// bound.
func TableII(seed int64) Table {
	t := Table{
		ID:     "E2 / Table II",
		Title:  "LAN latency within QUT (simulated fibre/Ethernet model)",
		Header: []string{"Machine#", "Location", "Distance (km)", "paper RTT", "simulated RTT", "< 1 ms"},
		Notes: []string{
			"model: 2c/3 fibre propagation + 4 switches x 30 us + 100 us stack + jitter (paper §V-E)",
		},
	}
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, seed)
	allUnder := true
	for _, h := range geo.TableIIHosts() {
		name := fmt.Sprintf("m%d", h.Machine)
		net.SetLink("src", name, lanLinkFor(h.DistanceKm))
		rtt, err := net.Ping("src", name)
		if err != nil {
			rtt = -1
		}
		under := rtt >= 0 && rtt < time.Millisecond
		if !under {
			allUnder = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h.Machine),
			h.Location,
			fmt.Sprintf("%.2f", h.DistanceKm),
			"< 1 ms",
			fmt.Sprintf("%.3f ms", float64(rtt)/1e6),
			fmt.Sprintf("%v", under),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("all rows under 1 ms: %v (paper: yes)", allUnder))
	return t
}

// TableIII reproduces Table III (Internet latency within Australia):
// simulated RTT from Brisbane to each host versus the paper's traceroute
// measurements, with the distance-latency fit both ways.
func TableIII(seed int64) Table {
	t := Table{
		ID:     "E3 / Table III",
		Title:  "Internet latency within Australia (Brisbane ADSL2 origin)",
		Header: []string{"URL", "Location", "Dist (km)", "paper RTT", "simulated RTT", "abs err"},
		Notes: []string{
			"model: 9 ms last-mile + 4/9 c over 1.3x-stretched great-circle path (paper §V-F)",
		},
	}
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, seed)

	var dists, paperMs, simMs []float64
	for i, h := range geo.TableIIIHosts() {
		name := fmt.Sprintf("h%d", i)
		net.SetLink("bne", name, simnet.InternetLink{
			DistanceKm: h.DistanceKm,
			LastMile:   simnet.DefaultLastMile,
		})
		rtt, err := net.Ping("bne", name)
		if err != nil {
			rtt = -1
		}
		simM := float64(rtt) / 1e6
		papM := float64(h.PaperRTT) / 1e6
		dists = append(dists, h.DistanceKm)
		paperMs = append(paperMs, papM)
		simMs = append(simMs, simM)
		t.Rows = append(t.Rows, []string{
			h.URL, h.Location,
			fmt.Sprintf("%.0f", h.DistanceKm),
			fmt.Sprintf("%.0f ms", papM),
			fmt.Sprintf("%.1f ms", simM),
			fmt.Sprintf("%.1f ms", abs(simM-papM)),
		})
	}
	if a, b, r2, err := stats.LinearFit(dists, paperMs); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("paper fit: RTT = %.1f + %.4f*km (R2=%.3f)", a, b, r2))
	}
	if a, b, r2, err := stats.LinearFit(dists, simMs); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("sim   fit: RTT = %.1f + %.4f*km (R2=%.3f)", a, b, r2))
	}
	if r, err := stats.Pearson(paperMs, simMs); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("paper-vs-sim correlation r=%.3f (positive distance-latency relationship reproduced)", r))
	}
	return t
}

// E7TimingBudget reproduces the §V-D/E/F arithmetic that sets Δt_max.
func E7TimingBudget() Table {
	t := Table{
		ID:     "E7 / §V-D-F",
		Title:  "GeoProof timing budget decomposition",
		Header: []string{"Component", "Paper value", "Model value"},
	}
	wd := disk.WD2500JD.LookupLatency(512)
	ibm := disk.IBM36Z15.LookupLatency(512)
	lan := geo.RoundTripTime(200, geo.SpeedFiberKmPerMs)
	inet3ms := geo.MaxDistanceKm(3*time.Millisecond, geo.SpeedInternetKmPerMs)
	rows := [][]string{
		{"fibre travel time for 200 km (LAN ≈1 ms claim)", "about 1 ms", ms(float64(lan) / 1e6 / 2)},
		{"look-up, average disk (WD2500JD)", "13.1055 ms", ms(float64(wd) / 1e6)},
		{"look-up, fast disk (IBM 36Z15)", "5.406 ms", ms(float64(ibm) / 1e6)},
		{"Δt_max = LAN + look-up", "≈16 ms", ms(float64(3*time.Millisecond+wd) / 1e6)},
		{"Internet distance in 3 ms RTT", "200 km one-way", km(inet3ms)},
		{"timing error of 1 ms at c", "150 km", km(geo.TimingErrorDistanceKm(time.Millisecond, geo.SpeedLightKmPerMs))},
	}
	t.Rows = rows
	return t
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
