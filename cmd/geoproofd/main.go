// Command geoproofd is the prover daemon: it serves a prepared file's
// segments over TCP, optionally simulating a disk technology's look-up
// latency so timing experiments behave like the paper's data centres.
// Verifiers open each connection with a mux Hello and get the multiplexed
// v2 transport: many concurrent audits on one connection, every timed
// round a stream of its own. A connection that opens with anything else
// is answered with one error frame and closed.
//
// Usage:
//
//	geoproofd -file data.geo -meta data.meta.json -addr :9341 [-disk wd2500jd] [-simulate]
//	geoproofd -store data.store -addr :9341
//
// With -store the daemon reopens a committed sharded store directory
// (written by geoprep -store): no -file/-meta needed — the manifest
// carries the layout — nothing is re-encoded or loaded into memory, and
// challenged segments are served by concurrent positioned reads straight
// from the shard files. -store-verify (default true) checks every
// shard's CRC against the manifest before serving.
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
	"repro/internal/meta"
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
	file := flag.String("file", "", "encoded .geo file to serve")
	metaPath := flag.String("meta", "", "metadata sidecar (only layout fields are used)")
	storeDir := flag.String("store", "", "serve from a committed store directory (geoprep -store); replaces -file/-meta")
	storeVerify := flag.Bool("store-verify", true, "check shard checksums against the manifest before serving")
	addr := flag.String("addr", ":9341", "listen address")
	diskName := flag.String("disk", "wd2500jd", "disk model for simulated look-up latency")
	simulate := flag.Bool("simulate", false, "sleep the modelled look-up latency per request")
	workers := flag.Int("j", 0, "max concurrently served verifier connections (0 = unlimited)")
	statusAddr := flag.String("status-addr", "", "serve /metrics and /healthz on this address (empty = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on -status-addr")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

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

	var fileID string
	var segments int64
	if *storeDir != "" {
		// Persistent mode: reopen the committed store — layout and file
		// identity come from the manifest, nothing is re-encoded and the
		// payload never loads into memory.
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		if *storeVerify {
			if err := st.Verify(); err != nil {
				return err
			}
		}
		fileID = st.FileID()
		segments = st.Layout().Segments
		site.StoreOn(fileID, st.Layout(), st)
		slog.Info("reopened store",
			"dir", *storeDir, "epoch", st.Manifest().Epoch,
			"shards", len(st.Manifest().Shards), "verified", *storeVerify)
	} else {
		if *file == "" || *metaPath == "" {
			return fmt.Errorf("either -store or both -file and -meta are required")
		}
		m, err := meta.Load(*metaPath)
		if err != nil {
			return err
		}
		layout, err := m.Layout()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(*file)
		if err != nil {
			return fmt.Errorf("read encoded file: %w", err)
		}
		if int64(len(data)) != layout.EncodedBytes {
			return fmt.Errorf("encoded file is %d bytes, layout expects %d", len(data), layout.EncodedBytes)
		}
		fileID = m.FileID
		segments = layout.Segments
		site.Store(m.FileID, layout, data)
	}

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
		"fileID", fileID, "segments", segments, "disk", model.Name,
		"simulate", *simulate, "concurrency", *workers, "addr", lis.Addr().String())
	srv := &core.ProverServer{
		Provider:            &cloud.HonestProvider{Site: site},
		SimulateServiceTime: *simulate,
		Concurrency:         *workers,
	}
	return srv.Serve(lis)
}
