"""One ``pyarrow.Schema`` per logical table (SURVEY.md §1.3/§1.5).

Every stage is schema-stable so ``map_batches(batch_format="pyarrow",
zero_copy_batch=True)`` never copies on input.
"""

import pyarrow as pa

HEADING_T = pa.struct([("level", pa.int32()), ("text", pa.string())])
LINK_T = pa.struct([("text", pa.string()), ("url", pa.string())])
IMAGE_REF_T = pa.struct([("alt", pa.string()), ("src", pa.string())])
LIST_T = pa.struct([("ordered", pa.bool_()), ("items", pa.list_(pa.string()))])
CODE_T = pa.struct([("language", pa.string()), ("code", pa.string())])

# Document struct — field order matches the reference struct
# (/root/reference/src/markdown_converter.rs:33-43)
DOCUMENT_T = pa.struct([
    ("title", pa.string()),
    ("base_url", pa.string()),
    ("headings", pa.list_(HEADING_T)),
    ("paragraphs", pa.list_(pa.string())),
    ("links", pa.list_(LINK_T)),
    ("images", pa.list_(IMAGE_REF_T)),
    ("lists", pa.list_(LIST_T)),
    ("code_blocks", pa.list_(CODE_T)),
    ("blockquotes", pa.list_(pa.string())),
])

# the frontier row schema the crawl engine actually writes/unions
# (pipelines/crawl.py imports this — keep the two in lockstep)
FRONTIER_SCHEMA = pa.schema([
    ("loc", pa.string()),
    ("lastmod", pa.string()),
    ("changefreq", pa.string()),
    ("priority", pa.float64()),
    ("host", pa.string()),
    ("depth", pa.int64()),
    ("seq_no", pa.int64()),
    ("seen_key", pa.string()),
])

# FETCHED/DOCUMENTS/RENDERED/METRICS document the logical tables of
# SURVEY §1.5; the crawl writes docs/chunks with stage-local schemas
# (crawl_convert_batch / chunk_explode_batch) that extend these.
FETCHED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("status", pa.int32()),
    ("html", pa.string()),
    ("fetch_round", pa.int32()),
    ("attempt", pa.int32()),
])

DOCUMENTS_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("doc", DOCUMENT_T),
])

RENDERED_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("format", pa.string()),
    ("payload", pa.string()),
])

CHUNKS_SCHEMA = pa.schema([
    ("chunk_id", pa.string()),
    ("source_url", pa.string()),
    ("content", pa.string()),
    ("heading", pa.string()),
    ("domain", pa.string()),
    ("position", pa.int32()),
    ("word_count", pa.int32()),
    ("char_count", pa.int32()),
    ("chunk_type", pa.string()),
    ("created_at", pa.string()),
])

CHAR_CHUNKS_SCHEMA = pa.schema([
    ("chunk_id", pa.string()),
    ("source_url", pa.string()),
    ("content", pa.string()),
    ("heading", pa.string()),
    ("level", pa.int32()),
    ("position", pa.int32()),
    ("word_count", pa.int32()),
    ("char_count", pa.int32()),
    ("semantic_density", pa.float32()),
])

IMAGES_SCHEMA = pa.schema([
    ("image_id", pa.string()),
    ("bytes", pa.binary()),
    ("w", pa.int32()),
    ("h", pa.int32()),
    ("fmt", pa.string()),
    ("caption", pa.string()),
    ("phash", pa.int64()),
])

METRICS_SCHEMA = pa.schema([
    ("round", pa.int32()),
    ("host", pa.string()),
    ("fetched", pa.int64()),
    ("failed", pa.int64()),
    ("deferred", pa.int64()),
    ("bytes", pa.int64()),
])
