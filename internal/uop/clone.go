package uop

// CloneMap is an identity-preserving deep-copy map for in-flight
// instructions. Machine layers share UOps by pointer (the queue, ROB, LSQ,
// renamer and front end all hold the same dynamic instruction), so cloning
// a machine must map each original to exactly one clone; CloneMap
// memoises that mapping and follows producer edges recursively.
type CloneMap struct {
	m map[*UOp]*UOp
}

// NewCloneMap returns an empty clone map.
func NewCloneMap() *CloneMap {
	return &CloneMap{m: make(map[*UOp]*UOp)}
}

// Get returns the clone of u, creating it — and the clones of its
// producers — on first sight. Get(nil) is nil. The queue-private IQ value
// is not carried: the owning queue's Clone re-attaches its own state to
// the clones of the instructions it holds (iq.Queue.Clone).
func (cm *CloneMap) Get(u *UOp) *UOp {
	if u == nil {
		return nil
	}
	if c, ok := cm.m[u]; ok {
		return c
	}
	c := new(UOp)
	*c = *u
	c.IQ = nil
	// The clone's cache and LSQ restart their memo generations, so a
	// carried memo could collide with an unrelated future generation.
	c.RejGen = 0
	c.FwdKey = 0
	cm.m[u] = c
	c.Prod[0] = cm.Get(u.Prod[0])
	c.Prod[1] = cm.Get(u.Prod[1])
	return c
}

// Len returns the number of instructions cloned so far.
func (cm *CloneMap) Len() int { return len(cm.m) }
