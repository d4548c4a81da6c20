// Package video implements the paper's §5.1 network video system: a server
// extension that reads video frame-by-frame "off the disk" and multicasts
// each frame as a UDP datagram to a set of client streams, and a client
// extension that checksums, decompresses, and displays frames to a
// cost-modelled framebuffer.
//
// The protocol is application-specific in exactly the paper's way: the UDP
// checksum is disabled (the client makes its own checksum pass over the
// data — §1.1's legitimate-by-agreement optimization), the server is
// co-located with the kernel on SPIN so disk blocks go to the network
// without crossing the user/kernel boundary, and delivery uses multicast
// semantics added to UDP.
//
// Figure 6 plots server CPU utilization against the number of client
// streams; the client's framebuffer-bound behaviour explains the paper's
// null result for client-side CPU.
package video

import (
	"encoding/binary"
	"fmt"

	"plexus/internal/plexus"
	"plexus/internal/sim"
	"plexus/internal/view"
)

// Defaults matching the paper's setup: 30 frames/second; a frame size such
// that 15 streams saturate the 45Mb/s T3 (45e6/8/30/15 ≈ 12.5KB).
const (
	DefaultFPS       = 30
	DefaultFrameSize = 12500
	DefaultPort      = 5004
)

// appChecksum is the client's application-level checksum pass: a simple
// 32-bit sum of the bytes, placed in the frame header by the server, which
// computes it in closed form (rampChecksum). It adds
// eight bytes per step: a word splits into four 16-bit lanes of byte-pair
// sums, and the lanes are totalled every 128 words, before any can overflow
// (128 * 2 * 255 < 2^16).
func appChecksum(b []byte) uint32 {
	const pairs = 0x00ff00ff00ff00ff
	var total uint64
	for len(b) >= 8 {
		n := min(len(b)/8, 128)
		var lanes uint64
		for i := 0; i < 8*n; i += 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			lanes += w&pairs + w>>8&pairs
		}
		b = b[8*n:]
		lanes = lanes&0x0000ffff0000ffff + lanes>>16&0x0000ffff0000ffff
		total += lanes&0xffffffff + lanes>>32
	}
	for _, x := range b {
		total += uint64(x)
	}
	return uint32(total)
}

// frameHdrLen is the application frame header: stream id, frame seq,
// checksum.
const frameHdrLen = 12

// ServerConfig configures a video server.
type ServerConfig struct {
	FrameSize int // bytes per frame, including header
	FPS       int
	// Port is the destination UDP port for all streams.
	Port uint16
}

func (c *ServerConfig) defaults() {
	if c.FrameSize == 0 {
		c.FrameSize = DefaultFrameSize
	}
	if c.FPS == 0 {
		c.FPS = DefaultFPS
	}
	if c.Port == 0 {
		c.Port = DefaultPort
	}
}

// ServerStats counts server activity.
type ServerStats struct {
	FramesSent uint64
	TicksLate  uint64 // frame periods that began with the previous period's work unfinished
}

// Server is the video-server extension.
type Server struct {
	st      *plexus.Stack
	cfg     ServerConfig
	app     *plexus.UDPApp
	streams []view.IP4
	seq     uint32
	frame   []byte // reused by buildFrame
	ramp    []byte // ramp[k] = 7k (mod 256): every payload is a window of it
	stats   ServerStats

	running  bool
	stopAt   sim.Time
	tickDone bool
}

// NewServer opens the server's sending endpoint (checksum disabled — the
// application-specific UDP variant). A frame must hold at least its header.
func NewServer(st *plexus.Stack, cfg ServerConfig) (*Server, error) {
	cfg.defaults()
	if cfg.FrameSize < frameHdrLen {
		return nil, fmt.Errorf("video: frame size %d is smaller than the %d-byte frame header", cfg.FrameSize, frameHdrLen)
	}
	app, err := st.OpenUDP(plexus.UDPAppOptions{DisableChecksum: true}, nil)
	if err != nil {
		return nil, fmt.Errorf("video: %w", err)
	}
	frame, ramp := frameBuffers(cfg.FrameSize)
	return &Server{st: st, cfg: cfg, app: app, frame: frame, ramp: ramp}, nil
}

// frameBuffers allocates, in one block, the frame buffer buildFrame rewrites
// and the ramp it cuts payloads from: ramp[k] = 7k (mod 256), long enough
// that a payload-sized window starts at every offset 0-255.
func frameBuffers(frameSize int) (frame, ramp []byte) {
	b := make([]byte, 2*frameSize-frameHdrLen+255)
	for k := range b[frameSize:] {
		b[frameSize+k] = byte(7 * k)
	}
	return b[:frameSize:frameSize], b[frameSize:]
}

// AddStream adds one client stream addressed to the given multicast group
// (or unicast client address).
func (s *Server) AddStream(group view.IP4) { s.streams = append(s.streams, group) }

// Stats returns a snapshot of counters.
func (s *Server) Stats() ServerStats { return s.stats }

// Run streams video for the given duration of simulated time.
func (s *Server) Run(duration sim.Time) {
	if s.running {
		return
	}
	s.running = true
	s.stopAt = s.st.Host.Sim.Now() + duration
	s.tickDone = true
	s.tick()
}

func (s *Server) tick() {
	simulator := s.st.Host.Sim
	if simulator.Now() >= s.stopAt {
		s.running = false
		return
	}
	if !s.tickDone {
		// The previous frame period's sends are still queued on the
		// CPU: the server failed its deadline (paper: "when the server
		// would fail to meet its deadline").
		s.stats.TicksLate++
	}
	s.tickDone = false
	s.st.Spawn("video-tick", func(t *sim.Task) {
		s.sendFrames(t)
		s.tickDone = true
	})
	period := sim.Second / sim.Time(s.cfg.FPS)
	simulator.AfterArg(period, "video-tick", videoTick, s)
}

// videoTick re-arms the frame clock, scheduled with AfterArg so a tick
// allocates no closure.
func videoTick(arg any) { arg.(*Server).tick() }

// sendFrames reads and transmits one frame per stream.
func (s *Server) sendFrames(t *sim.Task) {
	costs := s.st.Host.Costs
	for i, dst := range s.streams {
		s.seq++
		// Read the frame from disk through the file system.
		t.Charge(costs.DiskReadSetup)
		t.ChargeBytes(s.cfg.FrameSize, costs.DiskReadPerByte)
		// read(2) on DIGITAL UNIX: trap plus copyout of the file data to
		// the user buffer. (The subsequent send pays the copyin; SPIN's
		// in-kernel extension pays neither — §5.1.)
		s.st.Syscall(t, 0, 0, s.cfg.FrameSize)
		frame := s.buildFrame(uint32(i), s.seq)
		if err := s.app.Send(t, dst, s.cfg.Port, frame); err != nil {
			continue
		}
		s.stats.FramesSent++
	}
}

// buildFrame synthesizes frame content, byte i being seq+7i (mod 256), with
// the application-level header the client verifies. It rewrites the server's
// one frame buffer: Send copies the frame into mbufs before returning.
//
// The payload starts at first = seq+12*7, and since 7*183 = 1 (mod 256) it is
// the ramp's window at offset first*183, whose sum rampChecksum knows.
func (s *Server) buildFrame(stream, seq uint32) []byte {
	b := s.frame
	first := byte(seq) + frameHdrLen*7
	n := copy(b[frameHdrLen:], s.ramp[first*183:])
	be32(b[0:], stream)
	be32(b[4:], seq)
	be32(b[8:], rampChecksum(first, n))
	return b
}

// rampChecksum is appChecksum of the n bytes first+7k (mod 256). Since 7 is
// odd, any 256 consecutive of them are 0-255 in some order, summing to
// 32,640, and only the first n%256 are added one by one.
func rampChecksum(first byte, n int) uint32 {
	sum := uint32(n/256) * 32640
	for k := 0; k < n%256; k++ {
		sum += uint32(first + byte(7*k))
	}
	return sum
}

func be32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func rd32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// ClientStats counts client activity.
type ClientStats struct {
	FramesRcvd     uint64
	ChecksumErrors uint64
	BytesDisplayed uint64
}

// Client is the video-client extension: it checksums and decompresses each
// frame — "two passes over the data", as the paper notes — and writes the
// result to the framebuffer.
type Client struct {
	st    *plexus.Stack
	stats ClientStats
	// FramebufferBound, when false, models the faster video hardware the
	// paper anticipates (DEC J300): display writes cost RAM speed instead.
	FramebufferBound bool
	// ILP enables the integrated-layer-processing optimization the paper
	// says the client is "a good candidate" for [CT90]: checksum,
	// decompression, and display fused into a single traversal, saving
	// the extra memory-read pass over the frame.
	ILP bool
}

// NewClient subscribes to the stream on the given port (multicast accepted).
func NewClient(st *plexus.Stack, port uint16) (*Client, error) {
	c := &Client{st: st, FramebufferBound: true}
	if _, err := st.OpenUDP(plexus.UDPAppOptions{
		Port:            port,
		AcceptMulticast: true,
	}, c.frame); err != nil {
		return nil, fmt.Errorf("video: %w", err)
	}
	return c, nil
}

// Stats returns a snapshot of counters.
func (c *Client) Stats() ClientStats { return c.stats }

// frame processes one received video frame.
func (c *Client) frame(t *sim.Task, data []byte, src view.IP4, srcPort uint16) {
	if len(data) < frameHdrLen {
		c.stats.ChecksumErrors++
		return
	}
	costs := c.st.Host.Costs
	payload := data[frameHdrLen:]
	displayPerByte := costs.FramebufferPerByte
	if !c.FramebufferBound {
		displayPerByte = costs.RAMPerByte
	}
	if c.ILP {
		// Integrated layer processing [CT90]: one fused traversal reads
		// each byte once, checksums, decompresses, and writes it out.
		t.ChargeBytes(len(payload),
			costs.RAMPerByte+costs.ChecksumPerByte+costs.DecompressPerByte+displayPerByte)
		if appChecksum(payload) != rd32(data[8:]) {
			c.stats.ChecksumErrors++
			return
		}
	} else {
		// Pass 1: checksum (read the frame once).
		t.ChargeBytes(len(payload), costs.RAMPerByte+costs.ChecksumPerByte)
		if appChecksum(payload) != rd32(data[8:]) {
			c.stats.ChecksumErrors++
			return
		}
		// Pass 2: decompress (read it again) and display.
		t.ChargeBytes(len(payload), costs.RAMPerByte+costs.DecompressPerByte)
		t.ChargeBytes(len(payload), displayPerByte)
	}
	c.stats.FramesRcvd++
	c.stats.BytesDisplayed += uint64(len(payload))
}
