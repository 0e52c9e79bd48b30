// Command geoproofd is the prover daemon: it serves the segments of a
// committed sharded store (written by geoprep) over TCP, optionally
// simulating a disk technology's look-up latency so timing experiments
// behave like the paper's data centres. Verifiers open each connection
// with a mux Hello and get the multiplexed v2 transport: many concurrent
// audits on one connection, every timed round a stream of its own. A
// connection that opens with anything else is answered with one error
// frame and closed.
//
// Usage:
//
//	geoproofd -store data.store -addr :9341 [-disk wd2500jd] [-simulate]
//
// The store's manifest carries the layout and file identity, so the
// daemon takes no sidecar and never holds the owner's key: it cannot tag
// bytes of its own. Nothing is re-encoded or loaded into memory; every
// shard's CRC is checked against the manifest before serving, and
// challenged segments are served by concurrent positioned reads straight
// from the shard files.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geoproofd:", err)
		os.Exit(1)
	}
}

func diskByName(name string) (disk.Model, error) {
	for _, m := range disk.TableI() {
		if strings.EqualFold(strings.ReplaceAll(m.Name, " ", ""), strings.ReplaceAll(name, " ", "")) {
			return m, nil
		}
	}
	return disk.Model{}, fmt.Errorf("unknown disk %q (try wd2500jd, ibm36z15, ibm73lzx, ibm40gnx, hitachidk23da)", name)
}

func run() error {
	storeDir := flag.String("store", "", "committed store directory to serve (written by geoprep)")
	addr := flag.String("addr", ":9341", "listen address")
	diskName := flag.String("disk", "wd2500jd", "disk model for simulated look-up latency")
	simulate := flag.Bool("simulate", false, "sleep the modelled look-up latency per request")
	workers := flag.Int("j", 0, "max concurrently served verifier connections (0 = unlimited)")
	statusAddr := flag.String("status-addr", "", "serve /metrics and /healthz on this address (empty = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on -status-addr")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	model, err := diskByName(*diskName)
	if err != nil {
		return err
	}
	site := cloud.NewSite(cloud.DataCenter{
		Name:     "geoproofd",
		Position: geo.Brisbane,
		Disk:     model,
	}, 1)

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Verify(); err != nil {
		return err
	}
	site.StoreOn(st.FileID(), st.Layout(), st)
	slog.Info("reopened store",
		"dir", *storeDir, "epoch", st.Manifest().Epoch, "shards", len(st.Manifest().Shards))

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.MetricsHandler(telemetry.Default))
		mux.Handle("/healthz", telemetry.HealthzHandler())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		slis, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			return fmt.Errorf("status listen: %w", err)
		}
		statusSrv := &http.Server{Handler: mux}
		go statusSrv.Serve(slis)
		defer statusSrv.Close()
		slog.Info("status API serving", "addr", slis.Addr().String(), "pprof", *pprofOn)
	}
	slog.Info("serving",
		"fileID", st.FileID(), "segments", st.Layout().Segments, "disk", model.Name,
		"simulate", *simulate, "concurrency", *workers, "addr", lis.Addr().String())
	srv := &core.ProverServer{
		Provider:            &cloud.HonestProvider{Site: site},
		SimulateServiceTime: *simulate,
		Concurrency:         *workers,
	}
	return srv.Serve(lis)
}
