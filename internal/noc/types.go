// Package noc implements the on-chip interconnect substrate: a stacked 3D
// network of 2-stage wormhole-switched, virtual-channel flow-controlled
// routers connected by 128-bit links, 128-bit through-silicon vias (TSVs),
// and a few high-density 256-bit through-silicon buses (TSBs), exactly as
// configured in Table 1 of the paper. A Topology sets the shape; the default
// is the paper's two layers of 8x8 meshes. Routing is deterministic (X-Y
// within a layer; Z transitions at the endpoints or at region TSBs). The
// router arbitration stages accept a pluggable Prioritizer so the paper's
// STT-RAM-aware packet re-ordering (implemented in internal/core) can be
// layered on without modifying the routers.
package noc

import "fmt"

// Router microarchitecture defaults (Table 1).
const (
	DefaultVCs      = 6 // virtual channels per port
	DefaultBufDepth = 5 // flits per VC buffer
	// DataPacketFlits is a data-bearing packet: eight 128-bit data flits plus
	// one header flit.
	DataPacketFlits = 9
	// AddrPacketFlits is an address/control packet: a single flit.
	AddrPacketFlits = 1
)

// Pipeline timing: a state-of-the-art 2-stage router plus a 1-cycle link
// gives the 3-cycle per-hop latency quoted in Section 3.2.
const (
	RouterStages = 2
	LinkCycles   = 1
	HopLatency   = RouterStages + LinkCycles
)

// NodeID identifies a router/node. Numbering generalizes the paper's
// Figure 4: node = layer*LayerSize + y*MeshX + x, so at the default 8x8x2
// shape 0..63 are core-layer nodes and 64..127 cache-layer nodes. A
// Topology answers every geometric question about a NodeID.
type NodeID int

// Port indexes a router port.
type Port int

// Router ports: four cardinal mesh directions, the local node interface, and
// the vertical up/down TSV ports.
const (
	PortNorth Port = iota // +Y
	PortSouth             // -Y
	PortEast              // +X
	PortWest              // -X
	PortLocal
	PortUp   // toward layer 0
	PortDown // toward layer 1
	NumPorts
)

var portNames = [NumPorts]string{"N", "S", "E", "W", "L", "U", "D"}

// String returns a one-letter port name.
func (p Port) String() string {
	if p >= 0 && p < NumPorts {
		return portNames[p]
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// Opposite returns the port on the neighboring router that this port's link
// feeds into.
func (p Port) Opposite() Port {
	switch p {
	case PortNorth:
		return PortSouth
	case PortSouth:
		return PortNorth
	case PortEast:
		return PortWest
	case PortWest:
		return PortEast
	case PortUp:
		return PortDown
	case PortDown:
		return PortUp
	default:
		return PortLocal
	}
}

// Class is a packet's virtual-network class; classes partition the VCs to
// break protocol-level dependencies (requests, responses, coherence).
type Class uint8

const (
	// ClassReq carries demand requests: core-to-L2 reads/writes and
	// L2-to-memory-controller requests.
	ClassReq Class = iota
	// ClassResp carries data/ack responses back toward the requester and
	// memory-controller fills.
	ClassResp
	// ClassCoh carries coherence traffic (invalidations, coherence acks) and
	// the WB estimator's timestamp ACKs.
	ClassCoh
	// NumClasses is the number of virtual networks.
	NumClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassReq:
		return "req"
	case ClassResp:
		return "resp"
	case ClassCoh:
		return "coh"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Kind is the protocol-level message type carried by a packet.
type Kind uint8

const (
	// KindReadReq is a core's L2 read request (1 flit).
	KindReadReq Kind = iota
	// KindWriteReq is a core's L2 write/writeback carrying data (9 flits).
	KindWriteReq
	// KindReadResp returns a cache line to a core (9 flits).
	KindReadResp
	// KindWriteAck acknowledges a write to the requester (1 flit).
	KindWriteAck
	// KindInv is a directory invalidation to a sharer core (1 flit).
	KindInv
	// KindInvAck acknowledges an invalidation back to the directory (1 flit).
	KindInvAck
	// KindMemReq is an L2-miss request from a bank to a memory controller
	// (1 flit for reads, 9 for dirty writebacks; see Packet.SizeFlits).
	KindMemReq
	// KindMemResp is a memory-controller fill to a bank (9 flits).
	KindMemResp
	// KindTSAck is the window-based (WB) estimator's timestamp ACK from a
	// child node back to its parent router (1 flit).
	KindTSAck
	numKinds
)

var kindNames = [numKinds]string{
	"ReadReq", "WriteReq", "ReadResp", "WriteAck",
	"Inv", "InvAck", "MemReq", "MemResp", "TSAck",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Packet is one network message. Fields beyond the header (Addr, Proc, the
// WB-estimator tag, and the latency bookkeeping) model sideband state the
// real hardware carries in the header flit.
type Packet struct {
	ID    uint64
	Kind  Kind
	Class Class
	Src   NodeID
	Dst   NodeID

	Addr uint64
	Proc int // originating processor, for MC quotas and per-app stats

	SizeFlits int

	// IsBankWrite marks packets that will occupy a bank with a long write
	// when they arrive (write requests and memory fills); parents use it to
	// charge 33 busy cycles rather than 3.
	IsBankWrite bool

	// Window-based estimator tag (Section 3.5): the parent stamps an 8-bit
	// timestamp on every Nth packet; the child's NIC echoes it in a TSAck.
	Tagged    bool
	Timestamp uint8
	TagParent NodeID // router that applied the tag / should receive the ack
	TagChild  NodeID // child bank router the tagged packet was destined to

	// Latency bookkeeping.
	Injected uint64 // cycle the packet entered the source NIC queue
	Ejected  uint64 // cycle the tail flit was delivered at the destination
	Hops     int

	// BankQueueDelay is carried on response packets: the cycles the original
	// request waited in the destination bank's controller queue (Figure 7's
	// "queue lat" component).
	BankQueueDelay uint64
	// BankService is carried on response packets: the bank's service time
	// for the original request.
	BankService uint64
	// ReqInjected is carried on response packets: the cycle the original
	// request entered the network, so the requester can compute the whole
	// un-core round trip.
	ReqInjected uint64
	// ReqID is carried on response packets: the network-assigned ID of the
	// originating demand request, so an event trace can stitch a request and
	// its response into one lifecycle (internal/obs).
	ReqID uint64

	// arrived counts the flits ejected at the destination NIC during
	// reassembly. Keeping the counter on the packet (reset at injection)
	// replaces the NIC's former pointer-keyed pending map — no map churn, no
	// GC pressure, and no pointer-identity dependence that packet pooling
	// would otherwise have to worry about.
	arrived int32

	// pooled marks packets owned by a PacketPool (see pool.go).
	pooled bool
}

// NetworkLatency returns the cycles the packet spent from injection to
// delivery.
func (p *Packet) NetworkLatency() uint64 {
	if p.Ejected < p.Injected {
		return 0
	}
	return p.Ejected - p.Injected
}

// Flit is one flow-control unit of a packet.
type Flit struct {
	Pkt  *Packet
	Seq  int // 0 is the header
	Tail bool

	// readyAt is the first cycle this flit may compete for switch allocation
	// in the router currently buffering it; it models the pipeline stages and
	// link traversal.
	readyAt uint64
}

// IsHead reports whether this is the packet's header flit.
func (f *Flit) IsHead() bool { return f.Seq == 0 }
