package coherence

// Ring message payloads. Payloads are pointers so that circulating
// snoop messages can accumulate state (owner data, sharer sightings)
// as they pass each node.

type reqKind uint8

const (
	reqGetS reqKind = iota // read miss
	reqGetM                // write miss / upgrade
	reqPutM                // dirty writeback
)

// reqMsg travels core -> L2 agent and is the unit the L2 serializes.
type reqMsg struct {
	kind reqKind
	line uint64
	core int
	data LineData // PutM payload
}

// snoopMsg circulates the full ring in snoopy mode (Visit message,
// origin = L2 agent). Caches snoop it as it passes and may attach the
// owned line data.
type snoopMsg struct {
	kind      reqKind // reqGetS or reqGetM
	line      uint64
	requester int

	ownerData  LineData
	hasOwner   bool
	sharerSeen bool   // some non-requester cache held the line
	clockHint  uint64 // max logical clock of holders passed (piggyback)
}

// lineState is the MESI grant carried by dataMsg.
type lineState uint8

const (
	stateI lineState = iota
	stateS
	stateE
	stateM
)

// dataMsg travels L2 agent -> requester and completes a transaction.
type dataMsg struct {
	line      uint64
	data      LineData
	state     lineState
	clockHint uint64 // piggybacked ordering hint (see System.OnHint)
}

// invMsg travels L2 home -> sharer/owner in directory mode. isWrite
// distinguishes an invalidation (GetM) from a downgrade (GetS).
type invMsg struct {
	line      uint64
	requester int
	isWrite   bool
}

// ackMsg travels target -> L2 home in directory mode, optionally
// carrying the owned data.
type ackMsg struct {
	line      uint64
	from      int
	hasData   bool
	data      LineData
	clockHint uint64
}

// putAckMsg travels L2 agent -> evicting core and frees the writeback
// buffer entry.
type putAckMsg struct {
	line uint64
}
