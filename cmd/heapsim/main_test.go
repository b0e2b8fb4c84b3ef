package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// wantSummary is heapsim's stdout for the churned 30-node run below, with
// the wall-clock seconds of the "simulated in" line and the -csv directory
// masked. The per-class table pins which nodes count (crashed nodes and the
// broadcaster are skipped) and every number the read-out derives.
const wantSummary = `protocol=heap dist=ms-691 nodes=30 windows=3 (stream 6s) fanout=7 seed=7
simulated in Xs: 30890 messages, 15.5 MB sent, 23 lost, 205 dead-dropped

churn: 6 nodes crashed

| class   | nodes | usage | jitter-free@10s | min-lag jitter-free (mean) |
|---------|-------|-------|-----------------|----------------------------|
| 512kbps | 20    | 68.3% | 100.0%          | 1.1s (0 never)             |
| 1Mbps   | 2     | 65.3% | 100.0%          | 1.1s (0 never)             |
| 3Mbps   | 1     | 80.5% | 100.0%          | 1.1s (0 never)             |

lag to receive 99% of the stream: P50=1.3s P75=1.4s P90=1.4s

wrote DIR/delivery.csv and DIR/nodes.csv
`

// wantCSVDigests are the SHA-256 digests of the files -csv writes for the
// same run.
var wantCSVDigests = map[string]string{
	"delivery.csv": "651435c77911c66368b70f2f749f02ee76acf12d58b95720539f157dc93e8c22",
	"nodes.csv":    "5b5d897fcd92f2aae7e24869d0bedf6c5cac564694cc0c88db4b4a2b54fb2bbb",
}

func TestRunPinnedOutput(t *testing.T) {
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	args, realStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = args, realStdout }()
	os.Args = []string{"heapsim", "-nodes", "30", "-windows", "3", "-shards", "1",
		"-seed", "7", "-churn", "0.2", "-csv", csvDir}
	os.Stdout = stdout
	code := run()
	os.Stdout = realStdout
	stdout.Close()
	if code != 0 {
		t.Fatalf("run() exit code %d", code)
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("output pinned on amd64 only: %s may fuse multiply-adds, which moves the simulated run's last bits", runtime.GOARCH)
	}
	raw, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`simulated in [0-9.]+s`).ReplaceAllString(string(raw), "simulated in Xs")
	got = strings.ReplaceAll(got, csvDir, "DIR")
	if got != wantSummary {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, wantSummary)
	}
	for name, want := range wantCSVDigests {
		data, err := os.ReadFile(filepath.Join(csvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s digest %s, want %s", name, got, want)
		}
	}
}
