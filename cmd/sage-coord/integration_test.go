//go:build integration

// Distributed-collection integration test: run the real sage-coord binary
// with two real sage-collect agents, SIGKILL one agent mid-cell, and
// require the merged pool to be byte-identical to a single-process
// sage-collect run over the same campaign. Build-tagged so the tier-1
// suite stays hermetic; CI runs it with -tags integration.
package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildBinary(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

var campaignArgs = []string{
	"-schemes", "cubic,vegas",
	"-level", "tiny",
	"-seti-dur", "4s",
	"-setii-dur", "8s",
	"-seed", "1",
}

// waitExit waits for a process with a deadline, killing it on timeout.
func waitExit(t *testing.T, name string, cmd *exec.Cmd, timeout time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		<-done
		t.Fatalf("%s did not exit within %s", name, timeout)
		return nil
	}
}

func TestDistributedCollectionSurvivesAgentKill(t *testing.T) {
	bins := t.TempDir()
	coordBin := buildBinary(t, bins, "sage-coord", ".")
	collectBin := buildBinary(t, bins, "sage-collect", "../sage-collect")
	dir := t.TempDir()

	// Reference: a single-process run of the same campaign.
	refPool := filepath.Join(dir, "ref.gob.gz")
	refArgs := append([]string{"-out", refPool, "-parallel", "2"}, campaignArgs...)
	if out, err := exec.Command(collectBin, refArgs...).CombinedOutput(); err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}
	want, err := os.ReadFile(refPool)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator on an ephemeral port; it prints the bound address.
	outPool := filepath.Join(dir, "pool.gob.gz")
	coordArgs := append([]string{"-mode", "collect", "-listen", "127.0.0.1:0",
		"-out", outPool, "-lease-ttl", "5s"}, campaignArgs...)
	coord := exec.Command(coordBin, coordArgs...)
	coordOut, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()
	var addr string
	sc := bufio.NewScanner(coordOut)
	for sc.Scan() {
		line := sc.Text()
		t.Logf("coord: %s", line)
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatal("coordinator never announced its address")
	}
	go func() { // keep draining so the coordinator never blocks on stdout
		for sc.Scan() {
			t.Logf("coord: %s", sc.Text())
		}
	}()

	agent := func(id string) *exec.Cmd {
		cmd := exec.Command(collectBin, "-agent", addr, "-agent-id", id, "-parallel", "2")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("agent %s: %v", id, err)
		}
		return cmd
	}
	victim := agent("victim")
	survivor := agent("survivor")

	// SIGKILL the victim once the campaign is demonstrably underway: its
	// in-flight cells must be reassigned to the survivor.
	waitForFile(t, outPool+".wal", "WAL done record", 2*time.Minute,
		func(raw []byte) bool { return strings.Contains(string(raw), `"t":"done"`) })
	if _, err := os.Stat(outPool + ".manifest"); err == nil {
		t.Fatal("coordinator wrote a manifest next to its WAL")
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitExit(t, "victim", victim, time.Minute) // killed: error expected, just reap it

	if err := waitExit(t, "survivor", survivor, 5*time.Minute); err != nil {
		t.Fatalf("surviving agent: %v", err)
	}
	if err := waitExit(t, "coordinator", coord, time.Minute); err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	got, err := os.ReadFile(outPool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed pool differs from single-process run (%d vs %d bytes)", len(got), len(want))
	}
	// Resume state is cleaned up after a successful merge, and the
	// coordinator keeps no second ledger.
	for _, leftover := range []string{outPool + ".wal", outPool + ".shards", outPool + ".manifest"} {
		if _, err := os.Stat(leftover); err == nil {
			t.Fatalf("%s left behind after success", leftover)
		}
	}
}
