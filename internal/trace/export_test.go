package trace

// RecordAttributed folds a into the statistics as owned by variable vid
// (-1: unattributed), bypassing Attribute, so a test can feed a
// collector the attribution of a reference lookup.
func (c *Collector) RecordAttributed(a Access, vid int) { c.record(a, vid) }
