package main

import (
	"net"
	"strings"
	"testing"
)

// TestRunRefusesFleetConfig: a fleet configuration serve.NewFleet refuses
// fails run at start-up, before it listens, rather than failing every BUILD
// and SCORE of a running daemon. The address is held by the test, so a run
// that got as far as listening would fail with a listen error instead.
func TestRunRefusesFleetConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, flags := range [][]string{
		{"-memory", "4096", "-max-sessions", "0"},
		{"-memory", "-1"},
	} {
		args := append([]string{"-rows", "200", "-addr", ln.Addr().String()}, flags...)
		if err := run(args); err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
			t.Errorf("run %v = %v, want the fleet's serve: error", flags, err)
		}
	}
}
