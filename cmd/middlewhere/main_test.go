package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"middlewhere"
)

func TestLoadBuildingKinds(t *testing.T) {
	bld, label, err := loadBuilding("paper", "", 0, 0)
	if err != nil || label != "paper" || bld.Name != "CS" {
		t.Errorf("paper: %v %q %v", bld, label, err)
	}
	bld, label, err = loadBuilding("synthetic", "", 2, 3)
	if err != nil || label != "synthetic" || len(bld.Objects) != 1+2+6 {
		t.Errorf("synthetic: %q %v (objects=%d)", label, err, len(bld.Objects))
	}
	bld, label, err = loadBuilding("multistorey:2", "", 2, 2)
	if err != nil || label != "multistorey:2" {
		t.Fatalf("multistorey:2: %q %v", label, err)
	}
	floors := make(map[string]bool)
	for _, o := range bld.Objects {
		if o.Type == "Floor" {
			floors[o.GLOB.String()] = true
		}
	}
	if !floors["CS/F0"] || !floors["CS/F1"] || len(floors) != 2 {
		t.Errorf("multistorey:2 floors = %v, want CS/F0 and CS/F1", floors)
	}
	if _, _, err := loadBuilding("multistorey:zero", "", 2, 2); err == nil ||
		!strings.Contains(err.Error(), "bad storey count") {
		t.Errorf("bad storey err = %v", err)
	}
	if _, _, err := loadBuilding("castle", "", 0, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown building kind") {
		t.Errorf("bad kind err = %v", err)
	}
}

func TestLoadBuildingFromPlanFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := middlewhere.PaperFloor().SavePlan(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bld, label, err := loadBuilding("paper", path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bld.Name != "CS" || !strings.HasPrefix(label, "plan:") {
		t.Errorf("plan load: %q %s", label, bld.Name)
	}
	// Missing file.
	if _, _, err := loadBuilding("paper", filepath.Join(dir, "nope.json"), 0, 0); err == nil {
		t.Error("missing plan file should fail")
	}
	// Corrupt file.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBuilding("paper", bad, 0, 0); err == nil {
		t.Error("corrupt plan file should fail")
	}
}

func TestDaemonRunAndShutdown(t *testing.T) {
	reg := middlewhere.NewRegistryServer(nil)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", regAddr, "test-loc", "paper", "", "", "", 0, 0, stop)
	}()

	// The daemon registers itself; poll the registry until it shows up.
	rc, err := middlewhere.DialRegistry(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var svcAddr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, err := rc.Lookup("test-loc"); err == nil {
			svcAddr = e.Addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// It serves queries.
	c, err := middlewhere.DialLocation(svcAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Relate("CS/Floor3/NetLab", "CS/Floor3/MainCorridor"); err != nil {
		t.Errorf("daemon query: %v", err)
	}
	c.Close()
	// Shut it down.
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	// It deregistered on the way out.
	if _, err := rc.Lookup("test-loc"); err == nil {
		t.Error("daemon still registered after shutdown")
	}
}

func TestDaemonFederatedRun(t *testing.T) {
	reg := middlewhere.NewRegistryServer(nil)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", regAddr, "cs-3", "paper", "", "CS/Floor3, CS/Floor2", "", 0, 0, stop)
	}()

	rc, err := middlewhere.DialRegistry(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var svcAddr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, err := rc.Lookup("cs-3"); err == nil {
			svcAddr = e.Addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("federated daemon never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c, err := middlewhere.DialLocation(svcAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Daemon != "cs-3" {
		t.Errorf("shards daemon = %q, want cs-3", rep.Daemon)
	}
	owners := make(map[string]string)
	for _, p := range rep.Placement {
		owners[p.Shard] = p.Daemon
	}
	if owners["CS/Floor3"] != "cs-3" || owners["CS/Floor2"] != "cs-3" {
		t.Errorf("placement = %v, want both floors owned by cs-3", owners)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("federated daemon did not shut down")
	}
}

func TestDaemonFloorsWithoutRegistry(t *testing.T) {
	stop := make(chan os.Signal, 1)
	if err := run("127.0.0.1:0", "", "x", "paper", "", "CS/Floor3", "", 0, 0, stop); err == nil ||
		!strings.Contains(err.Error(), "-floors requires -registry") {
		t.Errorf("floors without registry: err = %v", err)
	}
}

func TestDaemonNoRegistry(t *testing.T) {
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", "", "x", "synthetic", "", "", "", 2, 2, stop)
	}()
	time.Sleep(50 * time.Millisecond)
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestDaemonBadRegistry(t *testing.T) {
	stop := make(chan os.Signal, 1)
	if err := run("127.0.0.1:0", "127.0.0.1:1", "x", "paper", "", "", "", 0, 0, stop); err == nil {
		t.Error("unreachable registry should fail")
	}
}
