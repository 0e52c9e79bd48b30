// Dynamic GeoProof: the §IV extension — geographic assurance over data
// that changes after upload. Blocks are authenticated by a Merkle tree
// (Wang-et-al-style dynamic POR) instead of embedded MACs; the verifier
// device's timed rounds are unchanged. The demo updates and appends
// blocks, re-audits under the new root, and shows a rollback attack being
// caught.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/disk"
	"repro/internal/dpor"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const blockSize = 64
	master, err := crypt.NewMasterKey()
	if err != nil {
		return err
	}
	client, err := dpor.NewClient(master, "ledger.db", blockSize)
	if err != nil {
		return err
	}
	data := bytes.Repeat([]byte("txn-0000;"), 2000)
	leaves, err := client.Init(data)
	if err != nil {
		return err
	}
	store, err := dpor.NewStore("ledger.db", leaves)
	if err != nil {
		return err
	}
	fmt.Printf("uploaded %d blocks, root %x...\n", store.Len(), func() []byte { r := client.Root(); return r[:8] }())

	// Simulated deployment: provider in Brisbane, verifier in its LAN.
	clk := vclock.NewVirtual(time.Time{})
	net := simnet.New(clk, 21)
	provider := &dpor.Provider{Store: store, Position: geo.Brisbane, Disk: disk.WD2500JD}
	net.SetLink("verifier", "prover", simnet.LANLink{
		DistanceKm: 0.5, Switches: 3,
		PerSwitch: 30 * time.Microsecond, Base: 100 * time.Microsecond,
	})
	lis, err := net.Listen("prover")
	if err != nil {
		return err
	}
	srv := &core.ProverServer{Provider: provider, SimulateServiceTime: true}
	go srv.Serve(lis)
	defer srv.Close()
	pool := &core.ProverPool{Dial: net.Dialer("verifier")}
	defer pool.Close()
	signer, err := crypt.NewSigner()
	if err != nil {
		return err
	}
	verifier, err := core.NewVerifier(signer, &gps.Receiver{True: geo.Brisbane}, clk)
	if err != nil {
		return err
	}
	auditor := &dpor.Auditor{
		Root:   client.Root(),
		Pub:    signer,
		Policy: core.DefaultPolicy(cloud.SLA{Center: geo.Brisbane, RadiusKm: 100}),
	}
	conn, _, err := pool.Get("prover")
	if err != nil {
		return err
	}

	audit := func(label string) error {
		nonce := make([]byte, 16)
		rand.New(rand.NewSource(time.Now().UnixNano())).Read(nonce)
		req := core.AuditRequest{FileID: "ledger.db", NumSegments: int64(store.Len()), K: 12, Nonce: nonce}
		st, err := verifier.RunAudit(context.Background(), req, conn)
		if err != nil {
			return err
		}
		rep := auditor.VerifyAudit(req, st)
		verdict := "ACCEPTED"
		if !rep.Accepted {
			verdict = "REJECTED: " + rep.Reason()
		}
		fmt.Printf("%-28s maxRTT=%-10v blocks=%d/%d  %s\n",
			label, rep.MaxRTT.Round(time.Microsecond), rep.SegmentsOK, req.K, verdict)
		return nil
	}

	if err := audit("initial audit"); err != nil {
		return err
	}

	// Day-2 operations: overwrite ten blocks, append twenty.
	blk := make([]byte, blockSize)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		rng.Read(blk)
		if err := client.Update(store, rng.Intn(client.NumBlocks()), blk); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		rng.Read(blk)
		if err := client.Append(store, blk); err != nil {
			return err
		}
	}
	auditor.Root = client.Root() // owner publishes the new root to the TPA
	fmt.Printf("applied 10 updates + 20 appends, new root %x...\n", func() []byte { r := client.Root(); return r[:8] }())
	if err := audit("audit after updates"); err != nil {
		return err
	}

	// Rollback attack: the provider restores yesterday's cheaper state
	// for a third of the store after the client re-encrypted it.
	n := client.NumBlocks() / 3
	oldLeaves := make([][]byte, n)
	for i := 0; i < n; i++ {
		leaf, _, err := store.Read(i)
		if err != nil {
			return err
		}
		oldLeaves[i] = leaf
	}
	for i := 0; i < n; i++ {
		rng.Read(blk)
		if err := client.Update(store, i, blk); err != nil {
			return err
		}
	}
	auditor.Root = client.Root()
	for i, leaf := range oldLeaves { // serve the stale blocks
		if err := store.Corrupt(i, leaf); err != nil {
			return err
		}
	}
	fmt.Printf("provider rolls %d blocks back to their pre-update content...\n", n)
	if err := audit("audit after rollback"); err != nil {
		return err
	}
	return nil
}
