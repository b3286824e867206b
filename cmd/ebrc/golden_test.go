package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenScenarios is the pinned subset of the registry: RunSim dumbbells
// with the Poisson probe (fig7), with WAN cross traffic (fig11) and on a
// RED queue (fig16, whose queue draws the run's first random split),
// RunTopoSim chains with faults (linkflap, capdrop), with churn
// (webmice, surge) and with an RTT spread (hetrtt), and RunRevSim runs
// (revcross, ackshare, and asymrev's multi-hop reverse chains).
var goldenScenarios = []string{"fig7", "fig11", "fig16", "linkflap", "capdrop", "webmice", "surge",
	"hetrtt", "revcross", "ackshare", "asymrev"}

// TestGoldenDigests pins the exact `ebrc -quick` TSV of goldenScenarios,
// plain and with `-metrics -epochs 4`, against the SHA-256 digests in
// testdata/golden.sha256. The executor-comparison tests only check
// engines against each other; these digests catch a change that shifts
// every engine's output the same way.
//
// A deliberate re-baseline regenerates the digests from the repository
// root with:
//
//	d=$(mktemp -d); for s in fig7 fig11 fig16 linkflap capdrop webmice surge hetrtt revcross ackshare asymrev; do
//	  go run ./cmd/ebrc -quick "$s" > "$d/$s.tsv"
//	  go run ./cmd/ebrc -quick -metrics -epochs 4 "$s" > "$d/$s.metrics.tsv"
//	done; (cd "$d" && sha256sum *.tsv) > cmd/ebrc/testdata/golden.sha256
func TestGoldenDigests(t *testing.T) {
	want := readDigests(t, "testdata/golden.sha256")
	for _, s := range goldenScenarios {
		for _, v := range []struct {
			file string
			args []string
		}{
			{s + ".tsv", []string{"-quick", s}},
			{s + ".metrics.tsv", []string{"-quick", "-metrics", "-epochs", "4", s}},
		} {
			var out, errb bytes.Buffer
			if code := run(v.args, &out, &errb); code != 0 {
				t.Fatalf("%s: exit %d, stderr: %s", v.file, code, errb.String())
			}
			sum := sha256.Sum256(out.Bytes())
			got := hex.EncodeToString(sum[:])
			if w, ok := want[v.file]; !ok {
				t.Errorf("%s: no pinned digest in testdata/golden.sha256", v.file)
			} else if got != w {
				t.Errorf("%s: TSV digest %s, pinned %s (output changed; re-baseline only on purpose)", v.file, got, w)
			}
		}
	}
}

// readDigests parses sha256sum output: "<hex>  <file>" per line.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[strings.TrimPrefix(fields[1], "*")] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
