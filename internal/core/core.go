package core

// ThrottleConfig carries Ceph's rate-limiting parameters (§3.2). The two
// that matter are filestore_queue_max_ops — the cap on operations between
// journal submission and filestore apply — and osd_client_message_cap —
// the cap on in-flight client messages per OSD.
type ThrottleConfig struct {
	FilestoreQueueMaxOps int64
	OSDClientMessageCap  int64
}

// HDDThrottles returns the stock defaults, sized for spinning disks. On
// flash they are the bottleneck: the filestore drains 30K IOPS but only 50
// ops may be queued toward it.
func HDDThrottles() ThrottleConfig {
	return ThrottleConfig{
		FilestoreQueueMaxOps: 50,
		OSDClientMessageCap:  100,
	}
}

// SSDThrottles returns the paper's tuned values, derived from the ~30K
// sustained IOPS of one 3-SSD block device: deep enough to cover the
// journal->filestore pipeline at full device speed, shallow enough to keep
// bounded memory and latency.
func SSDThrottles() ThrottleConfig {
	return ThrottleConfig{
		FilestoreQueueMaxOps: 3000,
		OSDClientMessageCap:  5000,
	}
}
