package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/por"
)

// DelayProxy forwards TCP connections to target, delaying every byte by
// rtt/2 in each direction — a userspace WAN emulator for loopback
// transport experiments. It models propagation, not serialisation: bytes
// written together are delivered together one half-RTT later, so every
// serial challenge/response round pays the RTT once, exactly as on a
// real link. It returns the proxy's address and a shutdown func.
func DelayProxy(target string, rtt time.Duration) (string, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			wg.Add(2)
			go delayPump(&wg, up, conn, rtt/2)
			go delayPump(&wg, conn, up, rtt/2)
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}, nil
}

// delayPump copies src→dst, delivering each chunk oneWay after it was
// read. Closing either side tears both down.
func delayPump(wg *sync.WaitGroup, dst, src net.Conn, oneWay time.Duration) {
	defer wg.Done()
	type pkt struct {
		b   []byte
		due time.Time
	}
	ch := make(chan pkt, 4096)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- pkt{b: buf[:n], due: time.Now().Add(oneWay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for p := range ch {
		time.Sleep(time.Until(p.due))
		if _, err := dst.Write(p.b); err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
	for range ch { // drain so the reader goroutine exits
	}
}

// E11Transport prices the connection set-up against the audit itself on
// the one prover transport: a cold audit (fresh pool, so a TCP dial and
// the mux Hello precede the rounds) against a warm one (the pool's
// connection is already up), on loopback and across an emulated WAN
// link. Every audit is complete — k serial timed rounds, transcript
// signature, TPA.VerifyAudit at the paper's Δt_max — and any verdict
// other than accept fails the experiment.
func E11Transport(seed int64) (Table, error) {
	t := Table{
		ID:     "E11 / transport",
		Title:  "Audit transport: cold connection vs warm pooled connection, k serial timed rounds",
		Header: []string{"Path", "audits/s", "audits", "mean/audit"},
	}
	const k = 24
	const wanRTT = 2 * time.Millisecond
	enc := por.NewEncoder([]byte("experiment-e11-master")).WithConcurrency(Concurrency)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(seed)).Read(data)
	ef, err := enc.Encode("e11-file", data)
	if err != nil {
		return t, err
	}
	site := cloud.NewSite(cloud.DataCenter{Name: "bne", Position: geo.Brisbane, Disk: disk.WD2500JD}, seed)
	site.Store(ef.FileID, ef.Layout, ef.Data)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return t, err
	}
	srv := &core.ProverServer{Provider: &cloud.HonestProvider{Site: site}}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()
	wanAddr, stopProxy, err := DelayProxy(addr, wanRTT)
	if err != nil {
		return t, err
	}
	defer stopProxy()

	signer, err := crypt.NewSigner()
	if err != nil {
		return t, err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, nil)
	if err != nil {
		return t, err
	}
	tpa, err := core.NewTPA(enc, signer.Public(), core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}))
	if err != nil {
		return t, err
	}
	audit := func(pool *core.ProverPool, addr string) error {
		req, err := tpa.NewRequest(ef.FileID, ef.Layout, k)
		if err != nil {
			return err
		}
		conn, release, err := pool.Get(addr)
		if err != nil {
			return err
		}
		st, err := verifier.RunAudit(context.Background(), req, conn)
		release(err)
		if err != nil {
			return err
		}
		if rep := tpa.VerifyAudit(req, ef.Layout, st); !rep.Accepted {
			return fmt.Errorf("honest audit rejected: %s", rep.Reason())
		}
		return nil
	}

	// row runs serial audits for a wall budget (at least 5, so the slow
	// WAN rows still average something) and records the achieved rate.
	// Serial on purpose: this is per-audit latency, not a saturation test.
	row := func(name, addr string, warm bool) (float64, error) {
		newPool := func() *core.ProverPool { return &core.ProverPool{DialTimeout: 5 * time.Second} }
		shared := newPool()
		defer shared.Close()
		const budget = 250 * time.Millisecond
		start := time.Now()
		n := 0
		for time.Since(start) < budget || n < 5 {
			pool := shared
			if !warm {
				pool = newPool()
			}
			err := audit(pool, addr)
			if !warm {
				pool.Close()
			}
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			n++
		}
		el := time.Since(start)
		rate := float64(n) / el.Seconds()
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%d", n), (el / time.Duration(n)).Round(time.Microsecond).String()})
		return rate, nil
	}
	for _, link := range []struct{ name, addr string }{{"loopback", addr}, {wanRTT.String() + " WAN", wanAddr}} {
		cold, err := row("cold connection, "+link.name, link.addr, false)
		if err != nil {
			return t, err
		}
		warm, err := row("warm pooled, "+link.name, link.addr, true)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{"warm / cold, " + link.name, fmt.Sprintf("x%.2f", warm/cold), "", ""})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("k=%d rounds per audit, 256 KiB file, loopback TCP, serial audits, every audit TPA-verified at Δt_max = 16 ms", k),
		"the k round trips are the distance bound (§V-B): the next challenge leaves only after the last response arrived",
		"cold pays on top: TCP dial + mux Hello round trip; warm reuses the pool's one connection per prover",
		fmt.Sprintf("the WAN rows add %v of emulated propagation RTT to every round trip, dial and Hello included", wanRTT),
	)
	return t, nil
}
