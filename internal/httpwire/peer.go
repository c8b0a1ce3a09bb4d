package httpwire

import (
	"errors"

	"piggyback/internal/core"
)

// Cooperative proxy mesh metadata. A fleet of proxies partitions the URL
// space with a consistent-hash ring (internal/peer); a proxy routes a
// local miss to the key's owner over the ordinary wire client. Two pieces
// of request metadata make that safe and useful:
//
//   - Piggy-Peer marks a request as peer-originated and names the sender.
//     It is the hop marker: a proxy receiving a Piggy-Peer request serves
//     it locally (cache or origin) and never forwards it again, so ring
//     disagreements or a dead owner can bounce a request at most one hop —
//     no forwarding loops. It also tells the owner who to re-propagate
//     piggyback volume state to.
//   - PeerPiggybackPath is the internal endpoint carrying that
//     re-propagation: when the owner of a partition receives a P-Volume
//     trailer from the origin, it POSTs the encoded message to the peers
//     that recently requested into its partition, so one peer's
//     invalidation/refresh freshens the whole fleet.
const (
	// FieldPeerFrom marks a peer-forwarded request; its value is the
	// sending proxy's advertised peer address.
	FieldPeerFrom = "Piggy-Peer"
	// PeerPiggybackPath is the origin-form path peers POST re-propagated
	// P-Volume messages to. The Host header names the origin server whose
	// volume state the body carries.
	PeerPiggybackPath = "/.piggy/peer/piggyback"
)

// SetPeerFrom marks req as peer-originated, naming the sending proxy.
func SetPeerFrom(req *Request, id string) {
	if req.Header == nil {
		req.Header = make(Header)
	}
	req.Header.Set(FieldPeerFrom, id)
}

// PeerFrom returns the sending proxy named by a peer-forwarded request;
// ok is false for ordinary client requests.
func PeerFrom(req *Request) (id string, ok bool) {
	id = req.Header.Get(FieldPeerFrom)
	return id, id != ""
}

// IsPeerPiggybackRequest reports whether req is a peer piggyback
// re-propagation (a POST to PeerPiggybackPath).
func IsPeerPiggybackRequest(req *Request) bool {
	return req.Method == "POST" && req.Path == PeerPiggybackPath
}

// NewPeerPiggybackRequest builds the re-propagation request: a POST to
// PeerPiggybackPath carrying m's encoding as its body, the origin host in
// the Host header, and the sender in Piggy-Peer.
func NewPeerPiggybackRequest(originHost, from string, m core.Message) *Request {
	req := NewRequest("POST", PeerPiggybackPath)
	req.Header.Set("Host", originHost)
	req.Body = []byte(m.Encode())
	SetPeerFrom(req, from)
	return req
}

// ParsePeerPiggyback extracts the origin host and message from a
// re-propagation request built by NewPeerPiggybackRequest.
func ParsePeerPiggyback(req *Request) (originHost string, m core.Message, err error) {
	originHost = req.Header.Get("Host")
	if originHost == "" {
		return "", core.Message{}, errPeerNoHost
	}
	m, err = core.ParseMessage(string(req.Body))
	if err != nil {
		return "", core.Message{}, err
	}
	return originHost, m, nil
}

var errPeerNoHost = errors.New("httpwire: peer piggyback request has no Host header")
