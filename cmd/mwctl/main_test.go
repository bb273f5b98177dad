package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"middlewhere"
)

// startDeployment brings up a registry and a location-service daemon
// in-process and returns their addresses.
func startDeployment(t *testing.T) (regAddr, svcAddr string) {
	t.Helper()
	reg := middlewhere.NewRegistryServer(nil)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)

	svc, err := middlewhere.New(middlewhere.PaperFloor())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	spec := middlewhere.UbisenseSpec(0.9)
	spec.TTL = time.Minute
	if err := svc.RegisterSensor("test-ubi", spec); err != nil {
		t.Fatal(err)
	}
	srv := middlewhere.NewRemoteServer(svc)
	svcAddr, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	rc, err := middlewhere.DialRegistry(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	if err := rc.Register("location-service", svcAddr, time.Minute); err != nil {
		t.Fatal(err)
	}
	return regAddr, svcAddr
}

func TestMwctlCommands(t *testing.T) {
	_, svcAddr := startDeployment(t)

	// Feed a reading first.
	if err := run(svcAddr, "", "", middlewhere.RemoteDialOptions{}, []string{
		"ingest", "test-ubi", "alice", "CS/Floor3/(370,15)", "0.5"}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	tests := [][]string{
		{"locate", "alice"},
		{"prob", "alice", "CS/Floor3/NetLab"},
		{"who", "CS/Floor3/NetLab"},
		{"route", "CS/Floor3/NetLab", "CS/Floor3/HCILab", "free"},
		{"relate", "CS/Floor3/NetLab", "CS/Floor3/MainCorridor"},
		{"query", "SELECT objects WHERE type = 'Room'"},
		{"dist", "alice"},
		{"history", "alice"},
		{"health"},
	}
	for _, args := range tests {
		if err := run(svcAddr, "", "", middlewhere.RemoteDialOptions{}, args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestMwctlStatsSnapshotLine pins the snapshot summary that follows
// the shard table: cuts taken, open handles and the cut-wait p99. A
// region query beforehand guarantees at least one cut.
func TestMwctlStatsSnapshotLine(t *testing.T) {
	_, svcAddr := startDeployment(t)
	for _, args := range [][]string{
		{"ingest", "test-ubi", "alice", "CS/Floor3/(370,15)", "0.5"},
		{"who", "CS/Floor3/NetLab"},
	} {
		if err := run(svcAddr, "", "", middlewhere.RemoteDialOptions{}, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() { out, _ := io.ReadAll(r); read <- out }()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(svcAddr, "", "", middlewhere.RemoteDialOptions{}, []string{"stats"})
	os.Stdout = stdout
	w.Close()
	out := <-read
	if runErr != nil {
		t.Fatalf("stats: %v", runErr)
	}
	line := regexp.MustCompile(`(?m)^snapshots: cuts=[1-9][0-9]* live=\S+ cut_wait_p99=[0-9]+\.[0-9]µs$`)
	if !line.Match(out) {
		t.Errorf("stats output has no snapshot summary line:\n%s", out)
	}
}

func TestMwctlRegistryLookup(t *testing.T) {
	regAddr, _ := startDeployment(t)
	if err := run("", regAddr, "location-service", middlewhere.RemoteDialOptions{}, []string{
		"relate", "CS/Floor3/NetLab", "CS/Floor3/MainCorridor"}); err != nil {
		t.Fatalf("registry-resolved command: %v", err)
	}
	// Unknown service name.
	err := run("", regAddr, "no-such-service", middlewhere.RemoteDialOptions{}, []string{"locate", "x"})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("err = %v", err)
	}
}

func TestMwctlUsageErrors(t *testing.T) {
	_, svcAddr := startDeployment(t)
	tests := []struct {
		args []string
		frag string
	}{
		{nil, "usage"},
		{[]string{"locate"}, "usage: locate"},
		{[]string{"prob", "x"}, "usage: prob"},
		{[]string{"who"}, "usage: who"},
		{[]string{"route", "a"}, "usage: route"},
		{[]string{"relate", "a"}, "usage: relate"},
		{[]string{"query"}, "usage: query"},
		{[]string{"dist"}, "usage: dist"},
		{[]string{"history"}, "usage: history"},
		{[]string{"ingest", "a", "b"}, "usage: ingest"},
		{[]string{"health", "x"}, "usage: health"},
		{[]string{"frobnicate"}, "unknown command"},
	}
	for _, tt := range tests {
		err := run(svcAddr, "", "", middlewhere.RemoteDialOptions{}, tt.args)
		if err == nil || !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%v: err = %v, want %q", tt.args, err, tt.frag)
		}
	}
	// No address at all.
	if err := run("", "", "", middlewhere.RemoteDialOptions{}, []string{"locate", "x"}); err == nil {
		t.Error("missing address should fail")
	}
}
