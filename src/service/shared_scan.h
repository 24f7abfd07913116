// Shared-scan batch execution, as the query service sees it.
//
// A window's queries run as one scan batch (exec/scan_batch.h) over one
// table snapshot. A chunk only one of them needs runs that query's
// compressed-domain pushdown strategy and is gathered by point access,
// exactly as solo exec::Scan would run it. A chunk two or more of them
// need runs the same filter once per band, and each band's selection over
// it is recycled across windows through the SelectionVectorCache. Only a
// shape without a pushdown, or a gathered chunk, is fused-decoded once into
// the DecodedChunkCache; on such a shape a band nested inside another
// re-filters the containing band's selection. Only shared chunks read or
// enter those caches.
//
// The service owns what surrounds a batch (service/query_service.h):
// admission, windows, deadlines, the result cache and in-window dedup.

#ifndef RECOMP_SERVICE_SHARED_SCAN_H_
#define RECOMP_SERVICE_SHARED_SCAN_H_

#include "exec/scan_batch.h"

namespace recomp::service {

using exec::BatchStats;
using exec::DecodedChunkCache;
using exec::ExecuteBatch;
using exec::SelectionVectorCache;

}  // namespace recomp::service

#endif  // RECOMP_SERVICE_SHARED_SCAN_H_
