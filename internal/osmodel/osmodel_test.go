package osmodel

import (
	"testing"

	"plexus/internal/sim"
)

func TestPersonalityString(t *testing.T) {
	if SPIN.String() != "SPIN/Plexus" || Monolithic.String() != "DIGITAL UNIX" {
		t.Error("personality names wrong")
	}
	if Personality(9).String() != "unknown" {
		t.Error("unknown personality name wrong")
	}
}

func TestDispatchModeString(t *testing.T) {
	if DispatchInterrupt.String() != "interrupt" || DispatchThread.String() != "thread" {
		t.Error("dispatch mode names wrong")
	}
}

func TestDefaultCostsPopulated(t *testing.T) {
	c := DefaultCosts()
	nonzero := []struct {
		name string
		v    sim.Time
	}{
		{"GuardEval", c.GuardEval}, {"EventInvoke", c.EventInvoke},
		{"Syscall", c.Syscall}, {"CopyPerByte", c.CopyPerByte},
		{"SocketLayer", c.SocketLayer}, {"Wakeup", c.Wakeup},
		{"CtxSwitch", c.CtxSwitch}, {"SoftIRQ", c.SoftIRQ},
		{"ThreadSpawn", c.ThreadSpawn}, {"EtherProc", c.EtherProc},
		{"IPProc", c.IPProc}, {"UDPProc", c.UDPProc}, {"TCPProc", c.TCPProc},
		{"ChecksumPerByte", c.ChecksumPerByte},
		{"DiskReadSetup", c.DiskReadSetup}, {"DiskReadPerByte", c.DiskReadPerByte},
		{"RAMPerByte", c.RAMPerByte}, {"FramebufferPerByte", c.FramebufferPerByte},
		{"DecompressPerByte", c.DecompressPerByte}, {"AppHandler", c.AppHandler},
	}
	for _, f := range nonzero {
		if f.v <= 0 {
			t.Errorf("cost %s is zero", f.name)
		}
	}
	// Structural invariants the calibration depends on.
	if c.GuardEval >= c.EventInvoke {
		t.Error("guard evaluation should cost less than a handler invocation")
	}
	if c.FramebufferPerByte < 9*c.RAMPerByte {
		t.Error("framebuffer writes should be ~10x RAM writes (paper §5.1)")
	}
	if c.CtxSwitch <= c.Syscall {
		t.Error("a context switch costs more than a trap")
	}
}

func TestHostAssembly(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, "h", SPIN, DefaultCosts())
	if h.CPU == nil || h.Disp == nil || h.Pool == nil || h.KernelDomain == nil || h.ExtensionDomain == nil {
		t.Fatal("host pieces missing")
	}
	if h.Name != "h" || h.Sim != s || h.Personality != SPIN {
		t.Error("host fields wrong")
	}
}
