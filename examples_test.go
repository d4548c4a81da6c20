package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// exampleSuccess is, for each program under examples/, the line it prints
// only when its scenario worked.
var exampleSuccess = map[string]string{
	"activemessages": `(?m)^premature terminations of the hog handler: 1$`,
	"customudp":      `(?m)^received 10/10 checksum-free datagrams`,
	"forwarding":     `(?m)^  user-level splice .* accepted=1 bytes→server=1460 bytes→client=1460 `,
	"newprotocol":    `(?m)^sent 30 datagrams through 25% loss: 30 delivered, in order, exactly once$`,
	"packetfilter":   `(?m)^tap saw 5 of 10 datagrams \(5 matched the filter\); VM agreed on 5/5$`,
	"quickstart":     `(?m)^echo of "hello, plexus" came back in `,
	"videostream":    `(?m)^ +1 +[0-9.]+% +[0-9.]+% +60$`, // one stream gets all 2 s × 30 fps
}

// TestExamplesRun builds every program under examples/ and runs it: each
// must exit 0 and print its success line, and every example must have one.
func TestExamplesRun(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, d := range dirs {
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			want, ok := exampleSuccess[name]
			if !ok {
				t.Fatalf("examples/%s has no success line in exampleSuccess", name)
			}
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("examples/%s: %v\n%s", name, err, out)
			}
			if !regexp.MustCompile(want).Match(out) {
				t.Errorf("examples/%s printed no line matching %q:\n%s", name, want, out)
			}
		})
	}
	if len(dirs) != len(exampleSuccess) {
		t.Errorf("%d examples, %d success lines: a listed example is gone", len(dirs), len(exampleSuccess))
	}
}
