package domain

import (
	"errors"
	"strings"
	"testing"
)

func TestExportResolve(t *testing.T) {
	d := New("kernel")
	if d.Name() != "kernel" {
		t.Error("name lost")
	}
	fn := func() int { return 42 }
	if err := d.Export("Mbuf.Alloc", fn); err != nil {
		t.Fatal(err)
	}
	v, ok := d.Resolve("Mbuf.Alloc")
	if !ok {
		t.Fatal("exported symbol did not resolve")
	}
	if v.(func() int)() != 42 {
		t.Fatal("wrong value resolved")
	}
	if _, ok := d.Resolve("Mbuf.Free"); ok {
		t.Fatal("unexported symbol resolved")
	}
}

func TestDuplicateExportFails(t *testing.T) {
	d := New("kernel")
	if err := d.Export("X", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Export("X", 2); err == nil {
		t.Fatal("duplicate export accepted")
	}
}

func TestMustExportPanics(t *testing.T) {
	d := New("kernel")
	d.MustExport("X", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustExport on duplicate did not panic")
		}
	}()
	d.MustExport("X", 2)
}

func TestLinkSuccess(t *testing.T) {
	kernel := New("kernel")
	kernel.MustExport("Mbuf.Alloc", "alloc")
	kernel.MustExport("Ethernet.PacketRecv", "event")

	var sawAlloc any
	ext := &Extension{
		Name:    "activemessages",
		Imports: []Symbol{"Mbuf.Alloc", "Ethernet.PacketRecv"},
		Exports: map[Symbol]any{"ActiveMessages.Handler": "h"},
		Init: func(resolved map[Symbol]any) error {
			sawAlloc = resolved["Mbuf.Alloc"]
			return nil
		},
	}
	l, err := Link(ext, kernel, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if sawAlloc != "alloc" {
		t.Error("init did not receive resolved import")
	}
	if _, ok := kernel.Resolve("ActiveMessages.Handler"); !ok {
		t.Fatal("export not installed after link")
	}
	if err := l.Unlink(); err != nil {
		t.Fatal(err)
	}
	if _, ok := kernel.Resolve("ActiveMessages.Handler"); ok {
		t.Fatal("export still visible after unlink")
	}
	if err := l.Unlink(); err == nil {
		t.Fatal("double unlink accepted")
	}
}

// The core safety property: an extension referencing a symbol outside its
// logical protection domain is rejected at link time (paper §2).
func TestLinkRejectsUnresolved(t *testing.T) {
	restricted := New("user-net")
	restricted.MustExport("UDP.PacketSend", "ok")
	ext := &Extension{
		Name:    "snooper",
		Imports: []Symbol{"UDP.PacketSend", "VM.MapKernelPage", "Sched.Preempt"},
	}
	_, err := Link(ext, restricted, restricted)
	if err == nil {
		t.Fatal("extension with out-of-domain imports linked")
	}
	var ue *UnresolvedError
	if !errors.As(err, &ue) {
		t.Fatalf("error type = %T, want *UnresolvedError", err)
	}
	if len(ue.Missing) != 2 {
		t.Fatalf("Missing = %v, want 2 symbols", ue.Missing)
	}
	if ue.Missing[0] != "Sched.Preempt" || ue.Missing[1] != "VM.MapKernelPage" {
		t.Fatalf("Missing not sorted: %v", ue.Missing)
	}
	msg := ue.Error()
	if !strings.Contains(msg, "snooper") || !strings.Contains(msg, "VM.MapKernelPage") {
		t.Errorf("error message uninformative: %q", msg)
	}
}

// Different extensions can be given different domains: a privileged domain
// resolves what a restricted one does not.
func TestPerExtensionDomains(t *testing.T) {
	full := New("kernel-full")
	full.MustExport("Device.RawAccess", 1)
	full.MustExport("Net.Send", 1)
	restricted := New("kernel-restricted")
	restricted.MustExport("Net.Send", 1)

	ext := &Extension{Name: "driver", Imports: []Symbol{"Device.RawAccess"}}
	if _, err := Link(ext, full, New("scratch")); err != nil {
		t.Fatalf("privileged link failed: %v", err)
	}
	if _, err := Link(ext, restricted, New("scratch")); err == nil {
		t.Fatal("restricted domain resolved a privileged symbol")
	}
}

func TestLinkInitFailureAborts(t *testing.T) {
	kernel := New("kernel")
	ext := &Extension{
		Name:    "bad",
		Exports: map[Symbol]any{"Bad.X": 1},
		Init:    func(map[Symbol]any) error { return errors.New("boom") },
	}
	if _, err := Link(ext, kernel, kernel); err == nil {
		t.Fatal("failed init did not abort link")
	}
	if _, ok := kernel.Resolve("Bad.X"); ok {
		t.Fatal("exports installed despite init failure")
	}
}

func TestLinkExportConflictRollsBack(t *testing.T) {
	kernel := New("kernel")
	kernel.MustExport("Taken", 0)
	ext := &Extension{
		Name: "clasher",
		Exports: map[Symbol]any{
			"Taken": 1,
			"Fresh": 2,
		},
	}
	if _, err := Link(ext, kernel, kernel); err == nil {
		t.Fatal("conflicting export accepted")
	}
	if _, ok := kernel.Resolve("Fresh"); ok {
		t.Fatal("partial exports not rolled back")
	}
}
