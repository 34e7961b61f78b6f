"""Tests for the BlastOutput XML renderer."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.blast import SequenceDB, blastn
from repro.blast.xmlout import to_xml


@pytest.fixture
def db():
    rng = np.random.default_rng(0)
    db = SequenceDB("nt", name="mini")
    for i in range(20):
        n = int(rng.integers(200, 800))
        db.add(f"s{i} sequence number {i}",
               "".join(rng.choice(list("ACGT"), n)))
    return db


def test_xml_is_well_formed_and_complete(db):
    target = db.sequence_str(5)
    query = target[20:min(220, len(target))]
    res = blastn(query, db, query_id="q1")
    xml = to_xml(res, program="blastn", database="mini")
    root = ET.fromstring(xml)
    assert root.tag == "BlastOutput"
    assert root.findtext("BlastOutput_program") == "blastn"
    assert root.findtext("BlastOutput_query-ID") == "q1"
    hits = root.findall(".//Hit")
    assert len(hits) == len(res.hits)
    hsp = root.find(".//Hsp")
    assert hsp is not None
    assert int(hsp.findtext("Hsp_query-from")) >= 1
    assert int(hsp.findtext("Hsp_identity")) > 0
    stat = root.find(".//Iteration_stat")
    assert int(stat.findtext("Statistics_db-num")) == len(db)


def test_xml_escapes_descriptions():
    """``&``, ``<`` and ``>`` become entities and quotes stay as they
    are: the bytes ``xml.sax.saxutils.escape`` gave."""
    db = SequenceDB("nt")
    db.add("weird <&> \"q\" 'a' description", "ACGTACGTACGTACGTACGT")
    res = blastn("ACGTACGTACGTACGTACGT", db)
    xml = to_xml(res)
    ET.fromstring(xml)  # must parse despite special characters
    assert "<Hit_def>weird &lt;&amp;&gt; \"q\" 'a' description</Hit_def>" \
        in xml


def test_xml_empty_results():
    db = SequenceDB("nt")
    db.add("s", "ACGTACGTACGTACGTACGT")
    res = blastn("TTTTTTTTTTTTGGGGGGGG", db)
    xml = to_xml(res)
    root = ET.fromstring(xml)
    assert root.findall(".//Hit") == []
